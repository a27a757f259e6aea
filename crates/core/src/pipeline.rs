//! The experiment matrix of the paper's Table 1: which passes each named
//! experiment enables. The actual runner lives in `tossa-bench` (it also
//! needs the baseline algorithms); this module is the single source of
//! truth for the pass sets.

use std::fmt;

/// The passes an experiment enables (columns of Table 1).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct Passes {
    /// Sreedhar et al.'s SSA→CSSA conversion.
    pub sreedhar: bool,
    /// `pinningCSSA`: pin φ-congruence classes to common resources.
    pub pinning_cssa: bool,
    /// `pinningSP`: pin the SP web (always on in the paper).
    pub pinning_sp: bool,
    /// `pinningABI`: collect ABI/ISA renaming constraints.
    pub pinning_abi: bool,
    /// `pinningφ`: the paper's coalescer (`Program_pinning`).
    pub pinning_phi: bool,
    /// Leung–George mark/reconstruct (always on; the φ replacement).
    pub out_of_pinned_ssa: bool,
    /// `NaiveABI`: local moves instead of ABI pinning.
    pub naive_abi: bool,
    /// Aggressive Chaitin-style repeated coalescing afterwards.
    pub coalescing: bool,
}

/// The named experiments of Tables 2–4 (Table 5 varies
/// [`crate::coalesce::CoalesceOptions`] on top of [`Experiment::LphiAbi`]).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum Experiment {
    /// Table 2 `Lφ+C`: our coalescer, no ABI constraints, then Chaitin.
    LphiC,
    /// Table 2 `C`: plain out-of-SSA then Chaitin (Briggs-style).
    CNoAbi,
    /// Table 2 `Sφ+C`: Sreedhar et al. + CSSA pinning, then Chaitin.
    SphiC,
    /// Table 3 `Lφ,ABI+C`: our coalescer with ABI constraints + Chaitin.
    LphiAbiC,
    /// Table 3 `Sφ+LABI+C`: Sreedhar + ABI pinning + Chaitin.
    SphiLabiC,
    /// Table 3 `LABI+C`: ABI pinning only (no φ coalescing) + Chaitin.
    LabiC,
    /// Table 3 `C`: naive ABI moves + Chaitin.
    CAbi,
    /// Table 4 `Lφ,ABI`: our coalescer with ABI constraints, no Chaitin.
    LphiAbi,
    /// Table 4 `Sφ`: Sreedhar + naive ABI, no Chaitin.
    Sphi,
    /// Table 4 `LABI`: ABI pinning only, no Chaitin.
    Labi,
}

impl Experiment {
    /// All experiments, in table order.
    pub fn all() -> &'static [Experiment] {
        use Experiment::*;
        &[
            LphiC, CNoAbi, SphiC, LphiAbiC, SphiLabiC, LabiC, CAbi, LphiAbi, Sphi, Labi,
        ]
    }

    /// Resolves a stable key, the variant name (`"CAbi"`): the spelling
    /// of the trajectory's cells and of the service's frames.
    pub fn from_key(key: &str) -> Option<Experiment> {
        Experiment::all()
            .iter()
            .copied()
            .find(|e| format!("{e:?}") == key)
    }

    /// Resolves a command-line name: a key or a paper label, ASCII
    /// case-insensitively.
    ///
    /// # Errors
    /// A name that matches no experiment, or a label two experiments
    /// share (`C`); the message names the candidates.
    pub fn from_name(name: &str) -> Result<Experiment, String> {
        let hits: Vec<Experiment> = Experiment::all()
            .iter()
            .copied()
            .filter(|e| {
                format!("{e:?}").eq_ignore_ascii_case(name) || e.label().eq_ignore_ascii_case(name)
            })
            .collect();
        match hits[..] {
            [e] => Ok(e),
            [] => {
                let all: Vec<String> = Experiment::all()
                    .iter()
                    .map(|e| format!("{e:?} ({e})"))
                    .collect();
                Err(format!(
                    "unknown experiment {name:?}; choose a key or label: {}",
                    all.join(", ")
                ))
            }
            _ => {
                let keys: Vec<String> = hits.iter().map(|e| format!("{e:?}")).collect();
                Err(format!(
                    "experiment {name:?} is ambiguous: it names {}; use the key",
                    keys.join(" and ")
                ))
            }
        }
    }

    /// The pass set of this experiment (the bullet row of Table 1).
    pub fn passes(self) -> Passes {
        use Experiment::*;
        let mut p = Passes {
            pinning_sp: true,        // "we choose to always execute pinningSP"
            out_of_pinned_ssa: true, // the φ replacement engine
            ..Passes::default()
        };
        match self {
            LphiC => {
                p.pinning_phi = true;
                p.coalescing = true;
            }
            CNoAbi => {
                p.coalescing = true;
            }
            SphiC => {
                p.sreedhar = true;
                p.pinning_cssa = true;
                p.coalescing = true;
            }
            LphiAbiC => {
                p.pinning_abi = true;
                p.pinning_phi = true;
                p.coalescing = true;
            }
            SphiLabiC => {
                p.sreedhar = true;
                p.pinning_cssa = true;
                p.pinning_abi = true;
                p.coalescing = true;
            }
            LabiC => {
                p.pinning_abi = true;
                p.coalescing = true;
            }
            CAbi => {
                p.naive_abi = true;
                p.coalescing = true;
            }
            LphiAbi => {
                p.pinning_abi = true;
                p.pinning_phi = true;
            }
            Sphi => {
                p.sreedhar = true;
                p.pinning_cssa = true;
                p.naive_abi = true;
            }
            Labi => {
                p.pinning_abi = true;
            }
        }
        p
    }

    /// Whether this experiment enforces ABI constraints in the output
    /// (via pinning or naive moves).
    pub fn enforces_abi(self) -> bool {
        let p = self.passes();
        p.pinning_abi || p.naive_abi
    }

    /// The label used in the paper's tables.
    pub fn label(self) -> &'static str {
        use Experiment::*;
        match self {
            LphiC => "Lphi+C",
            CNoAbi => "C",
            SphiC => "Sphi+C",
            LphiAbiC => "Lphi,ABI+C",
            SphiLabiC => "Sphi+LABI+C",
            LabiC => "LABI+C",
            CAbi => "C",
            LphiAbi => "Lphi,ABI",
            Sphi => "Sphi",
            Labi => "LABI",
        }
    }
}

impl fmt::Display for Experiment {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.label())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sp_and_reconstruct_always_on() {
        for &e in Experiment::all() {
            let p = e.passes();
            assert!(p.pinning_sp, "{e:?}");
            assert!(p.out_of_pinned_ssa, "{e:?}");
        }
    }

    #[test]
    fn table1_bullet_counts() {
        // The bullet counts of Table 1, row by row.
        use Experiment::*;
        let bullets = |e: Experiment| {
            let p = e.passes();
            [
                p.sreedhar,
                p.pinning_cssa,
                p.pinning_sp,
                p.pinning_abi,
                p.pinning_phi,
                p.out_of_pinned_ssa,
                p.naive_abi,
                p.coalescing,
            ]
            .iter()
            .filter(|&&b| b)
            .count()
        };
        assert_eq!(bullets(LphiC), 4);
        assert_eq!(bullets(CNoAbi), 3);
        assert_eq!(bullets(SphiC), 5);
        assert_eq!(bullets(LphiAbiC), 5);
        assert_eq!(bullets(SphiLabiC), 6);
        assert_eq!(bullets(LabiC), 4);
        assert_eq!(bullets(CAbi), 4);
        assert_eq!(bullets(LphiAbi), 4);
        assert_eq!(bullets(Sphi), 5);
        assert_eq!(bullets(Labi), 3);
    }

    #[test]
    fn every_key_and_unique_label_resolves() {
        for &e in Experiment::all() {
            let key = format!("{e:?}");
            assert_eq!(Experiment::from_key(&key), Some(e), "{key}");
            assert_eq!(Experiment::from_name(&key), Ok(e), "{key}");
            assert_eq!(Experiment::from_name(&key.to_ascii_lowercase()), Ok(e));
            if e.label() != "C" {
                assert_eq!(Experiment::from_name(e.label()), Ok(e), "{e}");
                assert_eq!(
                    Experiment::from_name(&e.label().to_ascii_uppercase()),
                    Ok(e)
                );
            }
        }
        assert_eq!(Experiment::from_key("Bogus"), None);
        // Keys are exact: frames keep refusing other spellings.
        assert_eq!(Experiment::from_key("cabi"), None);
        assert_eq!(Experiment::from_key("LABI"), None);
        let e = Experiment::from_name("Bogus").unwrap_err();
        assert!(
            e.contains("unknown experiment") && e.contains("CAbi (C)"),
            "{e}"
        );
    }

    #[test]
    fn the_shared_label_c_is_refused_naming_both_keys() {
        for name in ["C", "c"] {
            let e = Experiment::from_name(name).unwrap_err();
            assert!(e.contains("ambiguous"), "{e}");
            assert!(e.contains("CNoAbi") && e.contains("CAbi"), "{e}");
        }
    }

    #[test]
    fn naive_abi_excludes_pinning_abi() {
        for &e in Experiment::all() {
            let p = e.passes();
            assert!(!(p.naive_abi && p.pinning_abi), "{e:?}");
        }
    }
}
