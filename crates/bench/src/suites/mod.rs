//! The benchmark suites of the paper's §5 (substitutes — see DESIGN.md):
//! `VALcc1`, `VALcc2`, `example1-8`, `LAI Large`, and a `SPECint`-like
//! synthetic population.

pub mod kernels;
pub mod paper_examples;
pub mod synth;
pub mod vocoder;

use tossa_ir::Function;

/// One benchmark function plus sample inputs for end-to-end equivalence
/// checking.
#[derive(Clone, Debug)]
pub struct BenchFunction {
    /// The pre-SSA (multiple-assignment) function.
    pub func: Function,
    /// Input vectors the function is exercised on.
    pub inputs: Vec<Vec<i64>>,
}

/// A named suite.
#[derive(Clone, Debug)]
pub struct Suite {
    /// Suite name as it appears in the paper's tables.
    pub name: &'static str,
    /// The functions.
    pub functions: Vec<BenchFunction>,
}

impl Suite {
    /// Total instruction count (for scale reporting).
    pub fn num_insts(&self) -> usize {
        self.functions
            .iter()
            .map(|b| b.func.all_insts().count())
            .sum()
    }
}

/// All five suites, in the paper's table order. `spec_scale` controls the
/// size of the SPECint-like population (the paper's is large; tests use a
/// smaller scale).
pub fn all_suites(spec_scale: usize) -> Vec<Suite> {
    vec![
        Suite {
            name: "VALcc1",
            functions: kernels::valcc1(),
        },
        Suite {
            name: "VALcc2",
            functions: kernels::valcc2(),
        },
        Suite {
            name: "example1-8",
            functions: paper_examples::examples(),
        },
        Suite {
            name: "LAI Large",
            functions: vocoder::lai_large(),
        },
        Suite {
            name: "SPECint",
            functions: synth::specint_like(&synth::SynthConfig {
                functions: spec_scale,
                ..Default::default()
            }),
        },
    ]
}

/// The `--spec N` option of the bench binaries: the `spec_scale` of
/// [`all_suites`], 40 (the checked-in trajectories' scale) when absent.
///
/// # Errors
/// Names the option and the value when the value is not a number.
pub fn spec_arg(args: &[String]) -> Result<usize, String> {
    match args.iter().position(|a| a == "--spec") {
        None => Ok(40),
        Some(k) => {
            let v = args.get(k + 1).map_or("", String::as_str);
            v.parse()
                .map_err(|_| format!("--spec wants a number, got {v:?}"))
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn five_suites() {
        let suites = all_suites(5);
        let names: Vec<&str> = suites.iter().map(|s| s.name).collect();
        assert_eq!(
            names,
            vec!["VALcc1", "VALcc2", "example1-8", "LAI Large", "SPECint"]
        );
        for s in &suites {
            assert!(!s.functions.is_empty(), "{}", s.name);
            assert!(s.num_insts() > 0);
        }
    }
}
