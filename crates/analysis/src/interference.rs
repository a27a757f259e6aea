//! Classic interference graph over (possibly non-SSA) code, with the
//! move-exception of Chaitin's coalescing and a vertex merge, as used by
//! the aggressive "repeated coalescing" baseline (paper §5, `Coalescing`).
//!
//! The graph is one symmetric bit matrix over a compact numbering of the
//! variables it tracks. [`InterferenceGraph::build`] tracks every
//! variable; [`InterferenceGraph::build_among`] tracks only a given set,
//! which for the coalescer is the move operands, so `m ≤ 2·moves` and the
//! matrix takes `m²/8` bytes — the same order as the live-after-def rows
//! of the paper's own interference oracle. An edge test is one bit probe,
//! an insertion two bit stores, and a merge walks one row.

use crate::bitset::BitSet;
use crate::liveness::Liveness;
use tossa_ir::cfg::Cfg;
use tossa_ir::ids::Var;
use tossa_ir::{Function, Opcode};

/// Compact index of a variable the graph does not track.
const UNTRACKED: u32 = u32::MAX;

/// An undirected interference graph over variables.
#[derive(Clone, Debug)]
pub struct InterferenceGraph {
    /// Compact index of each variable, or [`UNTRACKED`].
    slot: Vec<u32>,
    /// The tracked variables by compact index, in increasing `Var` order.
    vars: Vec<Var>,
    /// `u64` words per matrix row.
    words: usize,
    /// Row-major adjacency matrix, `vars.len()` rows of `words` words.
    bits: Vec<u64>,
}

impl InterferenceGraph {
    /// Builds the graph over every variable: at every definition point,
    /// the defined variables interfere with everything live after the
    /// instruction — except that the destination of a `mov` does not
    /// interfere with its source *on account of that copy alone*.
    pub fn build(f: &Function, cfg: &Cfg, live: &Liveness) -> InterferenceGraph {
        let mut all: BitSet<Var> = BitSet::new(f.num_vars());
        for v in f.vars() {
            all.insert(v);
        }
        InterferenceGraph::build_among(f, cfg, live, &all)
    }

    /// [`InterferenceGraph::build`] restricted to the variables in
    /// `among`: only they get a row, and only edges with **both**
    /// endpoints in `among` are recorded (the edge set is exactly the
    /// full graph's restriction, so queries between `among` members are
    /// exact). The live cursor is kept intersected with `among`, and
    /// instructions defining no tracked variable skip the edge loop
    /// entirely — this is what the aggressive coalescer wants, since it
    /// only ever queries move-operand pairs.
    pub fn build_among(
        f: &Function,
        _cfg: &Cfg,
        live: &Liveness,
        among: &BitSet<Var>,
    ) -> InterferenceGraph {
        let mut g = InterferenceGraph::over(f.num_vars(), among);
        let mut cursor: BitSet<Var> = BitSet::new(f.num_vars());
        for b in f.blocks() {
            live.live_exit_into(f, b, &mut cursor);
            cursor.intersect_with(among);
            for &i in f.block(b).insts.iter().rev() {
                let inst = f.inst(i);
                if inst.is_phi() {
                    continue;
                }
                if inst.defs.iter().any(|d| among.contains(d.var)) {
                    let move_src = if inst.opcode == Opcode::Mov {
                        Some(inst.uses[0].var)
                    } else {
                        None
                    };
                    for d in inst.defs {
                        if !among.contains(d.var) {
                            continue;
                        }
                        for l in cursor.iter() {
                            if l != d.var && Some(l) != move_src {
                                g.add_edge(d.var, l);
                            }
                        }
                    }
                    // Simultaneously-defined variables interfere.
                    for (k, d1) in inst.defs.iter().enumerate() {
                        for d2 in &inst.defs[k + 1..] {
                            if among.contains(d1.var) && among.contains(d2.var) {
                                g.add_edge(d1.var, d2.var);
                            }
                        }
                    }
                }
                for d in inst.defs {
                    cursor.remove(d.var);
                }
                for u in inst.uses {
                    if among.contains(u.var) {
                        cursor.insert(u.var);
                    }
                }
            }
        }
        g
    }

    /// An edgeless graph over `num_vars` variables that tracks the
    /// members of `among`.
    fn over(num_vars: usize, among: &BitSet<Var>) -> InterferenceGraph {
        let vars: Vec<Var> = among.iter().collect();
        let mut slot = vec![UNTRACKED; num_vars];
        for (k, &v) in vars.iter().enumerate() {
            slot[v.index()] = k as u32;
        }
        let words = vars.len().div_ceil(64);
        InterferenceGraph {
            bits: vec![0; vars.len() * words],
            slot,
            vars,
            words,
        }
    }

    /// Compact index of `v`, if the graph tracks it.
    fn slot_of(&self, v: Var) -> Option<usize> {
        match self.slot.get(v.index()) {
            Some(&k) if k != UNTRACKED => Some(k as usize),
            _ => None,
        }
    }

    fn tracked(&self, v: Var) -> usize {
        self.slot_of(v)
            .unwrap_or_else(|| panic!("{v} is not tracked by this interference graph"))
    }

    fn row(&self, k: usize) -> &[u64] {
        &self.bits[k * self.words..(k + 1) * self.words]
    }

    fn set(&mut self, r: usize, c: usize) {
        self.bits[r * self.words + c / 64] |= 1 << (c % 64);
    }

    fn clear(&mut self, r: usize, c: usize) {
        self.bits[r * self.words + c / 64] &= !(1 << (c % 64));
    }

    /// Adds an interference edge.
    ///
    /// # Panics
    /// Panics if either variable is not tracked by the graph.
    pub fn add_edge(&mut self, a: Var, b: Var) {
        if a == b {
            return;
        }
        let (ka, kb) = (self.tracked(a), self.tracked(b));
        self.set(ka, kb);
        self.set(kb, ka);
    }

    /// Whether `a` and `b` interfere (never, when either is untracked).
    pub fn interferes(&self, a: Var, b: Var) -> bool {
        match (self.slot_of(a), self.slot_of(b)) {
            (Some(ka), Some(kb)) => self.row(ka)[kb / 64] & (1 << (kb % 64)) != 0,
            _ => false,
        }
    }

    /// Neighbors of `v`, in increasing `Var` order.
    pub fn neighbors(&self, v: Var) -> impl Iterator<Item = Var> + '_ {
        let row = self.slot_of(v).map_or(&[][..], |k| self.row(k));
        row.iter().enumerate().flat_map(move |(wi, &w)| {
            let mut bits = w;
            std::iter::from_fn(move || {
                if bits == 0 {
                    return None;
                }
                let b = bits.trailing_zeros() as usize;
                bits &= bits - 1;
                Some(self.vars[wi * 64 + b])
            })
        })
    }

    /// Degree of `v`.
    pub fn degree(&self, v: Var) -> usize {
        self.slot_of(v).map_or(0, |k| {
            self.row(k).iter().map(|w| w.count_ones() as usize).sum()
        })
    }

    /// Merges vertex `b` into vertex `a` (after coalescing the move
    /// `a = b` or `b = a`): `a` inherits `b`'s neighbors and `b` becomes
    /// isolated. This is the cheap SSA-style "simple edge union" merge the
    /// paper contrasts with re-running liveness (§3.5).
    ///
    /// # Panics
    /// Panics if `b` is tracked and `a` is not.
    pub fn merge(&mut self, a: Var, b: Var) {
        debug_assert!(!self.interferes(a, b), "merging interfering vars");
        let Some(kb) = self.slot_of(b) else {
            return; // an untracked variable has no neighbors
        };
        let ka = self.tracked(a);
        for wi in 0..self.words {
            let mut bits = std::mem::take(&mut self.bits[kb * self.words + wi]);
            while bits != 0 {
                let n = wi * 64 + bits.trailing_zeros() as usize;
                bits &= bits - 1;
                self.clear(n, kb);
                if n != ka {
                    self.set(ka, n);
                    self.set(n, ka);
                }
            }
        }
    }

    /// Total number of edges (for diagnostics).
    pub fn num_edges(&self) -> usize {
        self.bits
            .iter()
            .map(|w| w.count_ones() as usize)
            .sum::<usize>()
            / 2
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tossa_ir::machine::Machine;
    use tossa_ir::parse::parse_function;

    fn setup(text: &str) -> (Function, InterferenceGraph) {
        let f = parse_function(text, &Machine::dsp32()).unwrap();
        f.validate().unwrap();
        let cfg = Cfg::compute(&f);
        let live = Liveness::compute(&f, &cfg);
        let g = InterferenceGraph::build(&f, &cfg, &live);
        (f, g)
    }

    fn var(f: &Function, name: &str) -> Var {
        f.vars().find(|&v| &*f.var(v).name == name).unwrap()
    }

    #[test]
    fn overlapping_ranges_interfere() {
        let (f, g) = setup(
            "func @i {
entry:
  %a = make 1
  %b = make 2
  %c = add %a, %b
  ret %c
}",
        );
        assert!(g.interferes(var(&f, "a"), var(&f, "b")));
        assert!(!g.interferes(var(&f, "a"), var(&f, "c")));
    }

    #[test]
    fn move_does_not_create_interference() {
        let (f, g) = setup(
            "func @m {
entry:
  %a = make 1
  %b = mov %a
  ret %b
}",
        );
        assert!(!g.interferes(var(&f, "a"), var(&f, "b")));
    }

    #[test]
    fn copy_related_overlap_still_coalescable() {
        let (f, g) = setup(
            "func @m {
entry:
  %a = make 1
  %b = mov %a
  %c = add %a, %b
  ret %c
}",
        );
        // a and b overlap, but only through the copy: they hold the same
        // value, so Chaitin's construction leaves them coalescable.
        assert!(!g.interferes(var(&f, "a"), var(&f, "b")));
    }

    #[test]
    fn redefined_source_interferes_with_copy_dest() {
        let (f, g) = setup(
            "func @m {
entry:
  %b = make 5
  %a = make 1
  %b = mov %a
  %a = make 2
  %c = add %a, %b
  ret %c
}",
        );
        // a is redefined while b is live: a genuinely interferes with b.
        assert!(g.interferes(var(&f, "a"), var(&f, "b")));
    }

    #[test]
    fn simultaneous_defs_interfere() {
        let (f, g) = setup(
            "func @s {
entry:
  %a, %b = input
  ret %a
}",
        );
        assert!(g.interferes(var(&f, "a"), var(&f, "b")));
    }

    #[test]
    fn merge_unions_neighbors() {
        let (f, mut g) = setup(
            "func @m {
entry:
  %a = make 1
  %b = mov %a
  %x = make 9
  %c = add %b, %x
  ret %c
}",
        );
        let (a, b, x) = (var(&f, "a"), var(&f, "b"), var(&f, "x"));
        // b interferes with x (x defined while b live)? x defined after b,
        // b live across x's def.
        assert!(g.interferes(b, x) || g.interferes(x, b));
        assert!(!g.interferes(a, b));
        g.merge(a, b);
        assert!(g.interferes(a, x));
        assert_eq!(g.degree(b), 0);
    }
}
