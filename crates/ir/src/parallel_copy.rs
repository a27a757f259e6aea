//! Parallel copy sequentialization.
//!
//! The out-of-SSA translation replaces the φs of a block by one *parallel
//! copy* per incoming edge (paper §2.3: "The copies `R0 = x'1; R1 = R0`
//! are performed in parallel in the algorithm, so as to avoid the
//! so-called swap problem"). A parallel copy assigns all destinations
//! simultaneously from the *old* values of all sources. Emitting it as a
//! sequence of `mov`s requires ordering reads before overwrites and
//! breaking cycles with a temporary.

use crate::ids::Var;
use std::fmt;

/// An ill-formed parallel copy.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum ParallelCopyError {
    /// Two moves write one destination from different sources; the
    /// parallel semantics would be ambiguous.
    DuplicateDestination {
        /// The destination written twice.
        dst: Var,
        /// Source of the first conflicting move.
        first_src: Var,
        /// Source of the second conflicting move.
        second_src: Var,
    },
}

impl fmt::Display for ParallelCopyError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ParallelCopyError::DuplicateDestination {
                dst,
                first_src,
                second_src,
            } => write!(
                f,
                "parallel copy writes {dst} from both {first_src} and {second_src}"
            ),
        }
    }
}

impl std::error::Error for ParallelCopyError {}

/// Sequentializes the parallel copy `moves` (pairs `(dst, src)`, all
/// `dst` distinct) into an equivalent ordered list of copies.
///
/// `fresh_temp` is called at most once per dependency cycle to obtain a
/// scratch variable.
///
/// Self-copies (`dst == src`) are dropped. The result preserves parallel
/// semantics: after executing the returned moves in order, every `dst`
/// holds the value `src` had before the first move.
///
/// # Panics
/// Panics with the [`ParallelCopyError`] when two moves write one
/// destination from different sources, in every build. Only an
/// incorrect pinning produces such a group; untrusted inputs go through
/// [`sequentialize_checked`], which reports the conflict instead.
pub fn sequentialize(moves: &[(Var, Var)], fresh_temp: impl FnMut() -> Var) -> Vec<(Var, Var)> {
    sequentialize_checked(moves, fresh_temp).unwrap_or_else(|e| panic!("{e}"))
}

/// [`sequentialize`] for untrusted inputs: reports an ill-formed
/// parallel copy instead of asserting.
///
/// Exact duplicate moves (same destination *and* source) are merged;
/// self-copies are dropped.
///
/// # Errors
/// Returns [`ParallelCopyError::DuplicateDestination`] when two moves
/// write one destination from different sources.
pub fn sequentialize_checked(
    moves: &[(Var, Var)],
    mut fresh_temp: impl FnMut() -> Var,
) -> Result<Vec<(Var, Var)>, ParallelCopyError> {
    let mut unique: Vec<(Var, Var)> = Vec::with_capacity(moves.len());
    for &(d, s) in moves {
        match unique.iter().find(|&&(ud, _)| ud == d) {
            Some(&(_, us)) if us != s => {
                return Err(ParallelCopyError::DuplicateDestination {
                    dst: d,
                    first_src: us,
                    second_src: s,
                });
            }
            Some(_) => {} // exact duplicate: merge
            None => unique.push((d, s)),
        }
    }

    let mut pending: Vec<(Var, Var)> = unique.into_iter().filter(|&(d, s)| d != s).collect();
    let mut out = Vec::with_capacity(pending.len());
    if !pending.is_empty() {
        tossa_trace::count(tossa_trace::Counter::ParallelCopyGroups, 1);
    }

    while !pending.is_empty() {
        // Emit every move whose destination is not needed as a source by
        // any other pending move.
        let mut progressed = false;
        let mut i = 0;
        while i < pending.len() {
            let (d, _) = pending[i];
            let blocked = pending
                .iter()
                .enumerate()
                .any(|(j, &(_, s))| j != i && s == d);
            if blocked {
                i += 1;
            } else {
                out.push(pending.remove(i));
                progressed = true;
            }
        }
        if pending.is_empty() {
            break;
        }
        if !progressed {
            // Every pending destination is also a pending source: we are
            // looking at one or more cycles. Break one by saving a
            // destination's old value in a temp.
            let (d, _) = pending[0];
            let temp = fresh_temp();
            tossa_trace::count(tossa_trace::Counter::ParallelCopyCycles, 1);
            out.push((temp, d));
            for (_, s) in pending.iter_mut() {
                if *s == d {
                    *s = temp;
                }
            }
        }
    }
    Ok(out)
}

/// Applies a list of sequential copies to an environment lookup, returning
/// the final value of each destination — a tiny evaluator used by tests to
/// compare against parallel semantics.
#[doc(hidden)]
pub fn eval_sequential(
    copies: &[(Var, Var)],
    initial: impl Fn(Var) -> i64,
) -> std::collections::HashMap<Var, i64> {
    let mut env: std::collections::HashMap<Var, i64> = std::collections::HashMap::new();
    let read = |env: &std::collections::HashMap<Var, i64>, v: Var| -> i64 {
        env.get(&v).copied().unwrap_or_else(|| initial(v))
    };
    for &(d, s) in copies {
        let val = read(&env, s);
        env.insert(d, val);
    }
    env
}

#[cfg(test)]
mod tests {
    use super::*;

    fn check(moves: &[(usize, usize)]) {
        let moves: Vec<(Var, Var)> = moves
            .iter()
            .map(|&(d, s)| (Var::new(d), Var::new(s)))
            .collect();
        let mut next = 1000;
        let seq = sequentialize(&moves, || {
            next += 1;
            Var::new(next)
        });
        let env = eval_sequential(&seq, |v| v.index() as i64);
        for &(d, s) in &moves {
            assert_eq!(
                env.get(&d).copied().unwrap_or(d.index() as i64),
                s.index() as i64,
                "dst {d} should have old value of {s}; seq = {seq:?}"
            );
        }
    }

    #[test]
    fn independent_moves() {
        check(&[(1, 2), (3, 4)]);
    }

    #[test]
    fn chain_is_ordered() {
        // a <- b <- c must emit a=b before b=c.
        check(&[(1, 2), (2, 3)]);
        let moves = [(Var::new(1), Var::new(2)), (Var::new(2), Var::new(3))];
        let seq = sequentialize(&moves, || unreachable!("no cycle"));
        assert_eq!(
            seq,
            vec![(Var::new(1), Var::new(2)), (Var::new(2), Var::new(3))]
        );
    }

    #[test]
    fn swap_uses_one_temp() {
        let moves = [(Var::new(1), Var::new(2)), (Var::new(2), Var::new(1))];
        let mut temps = 0;
        let seq = sequentialize(&moves, || {
            temps += 1;
            Var::new(99)
        });
        assert_eq!(temps, 1);
        assert_eq!(seq.len(), 3);
        check(&[(1, 2), (2, 1)]);
    }

    #[test]
    fn three_cycle() {
        check(&[(1, 2), (2, 3), (3, 1)]);
    }

    #[test]
    fn two_disjoint_cycles_use_two_temps() {
        let moves: Vec<(Var, Var)> = [(1, 2), (2, 1), (3, 4), (4, 3)]
            .iter()
            .map(|&(d, s)| (Var::new(d), Var::new(s)))
            .collect();
        let mut next = 100;
        let seq = sequentialize(&moves, || {
            next += 1;
            Var::new(next)
        });
        assert_eq!(next, 102);
        let env = eval_sequential(&seq, |v| v.index() as i64);
        assert_eq!(env[&Var::new(1)], 2);
        assert_eq!(env[&Var::new(4)], 3);
    }

    #[test]
    fn self_moves_dropped() {
        let moves = [(Var::new(5), Var::new(5))];
        let seq = sequentialize(&moves, || unreachable!());
        assert!(seq.is_empty());
    }

    #[test]
    fn fanout_same_source() {
        check(&[(1, 3), (2, 3)]);
    }

    #[test]
    fn cycle_plus_chain() {
        // chain into a cycle: 5 <- 1, and cycle 1 <-> 2.
        check(&[(5, 1), (1, 2), (2, 1)]);
    }

    #[test]
    fn checked_rejects_conflicting_duplicate_destination() {
        let moves = [(Var::new(1), Var::new(2)), (Var::new(1), Var::new(3))];
        let e = sequentialize_checked(&moves, || unreachable!()).unwrap_err();
        assert_eq!(
            e,
            ParallelCopyError::DuplicateDestination {
                dst: Var::new(1),
                first_src: Var::new(2),
                second_src: Var::new(3),
            }
        );
        assert!(e.to_string().contains("v1"), "{e}");
    }

    #[test]
    fn checked_merges_exact_duplicates_and_self_copies() {
        // The same move twice is not a conflict, and self-copies vanish
        // even when duplicated.
        let moves = [
            (Var::new(1), Var::new(2)),
            (Var::new(1), Var::new(2)),
            (Var::new(3), Var::new(3)),
            (Var::new(3), Var::new(3)),
        ];
        let seq = sequentialize_checked(&moves, || unreachable!()).unwrap();
        assert_eq!(seq, vec![(Var::new(1), Var::new(2))]);
    }

    #[test]
    fn checked_swap_cycle_and_lost_copy() {
        // Swap: exactly one temp.
        let mut temps = 0;
        let seq = sequentialize_checked(
            &[(Var::new(1), Var::new(2)), (Var::new(2), Var::new(1))],
            || {
                temps += 1;
                Var::new(90 + temps)
            },
        )
        .unwrap();
        assert_eq!(temps, 1);
        let env = eval_sequential(&seq, |v| v.index() as i64);
        assert_eq!(env[&Var::new(1)], 2);
        assert_eq!(env[&Var::new(2)], 1);
        // Three-cycle.
        let seq = sequentialize_checked(
            &[
                (Var::new(1), Var::new(2)),
                (Var::new(2), Var::new(3)),
                (Var::new(3), Var::new(1)),
            ],
            || Var::new(99),
        )
        .unwrap();
        let env = eval_sequential(&seq, |v| v.index() as i64);
        assert_eq!(env[&Var::new(3)], 1);
        // Lost-copy shape: the chain out of the cycle reads the old value.
        let seq = sequentialize_checked(
            &[(Var::new(5), Var::new(1)), (Var::new(1), Var::new(2))],
            || unreachable!("no cycle"),
        )
        .unwrap();
        assert_eq!(
            seq,
            vec![(Var::new(5), Var::new(1)), (Var::new(1), Var::new(2))]
        );
    }

    #[test]
    #[should_panic(expected = "parallel copy writes v1 from both v2 and v3")]
    fn unchecked_panics_on_conflicting_duplicate_destination() {
        let moves = [(Var::new(1), Var::new(2)), (Var::new(1), Var::new(3))];
        let _ = sequentialize(&moves, || unreachable!());
    }
}
