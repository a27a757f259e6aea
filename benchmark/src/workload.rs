//! The benchmark's workloads: fixed input populations, each measured
//! in-process (the batch phase) and through the `serve` TCP path (the
//! service phase) in an order drawn from the seed. Generation is a pure
//! function of the workload; the program under test only ever sees the
//! generated functions.

use tossa_bench::checked::fuzz_suite;
use tossa_bench::suites::synth::{generate_function, SynthConfig};
use tossa_bench::suites::{kernels, paper_examples, vocoder, BenchFunction};
use tossa_core::Experiment;
use tossa_ir::interp::{self, Trap};

/// Interpreter fuel for every differential execution the benchmark runs
/// (the pipeline's and the service's own default).
pub const FUEL: u64 = 5_000_000;

/// SPECint-like functions per `tables` population (the paper-table
/// scale of `BENCH_pr10.json`).
pub const SPEC_SCALE: u64 = 40;

/// Which population a workload draws.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Kind {
    /// The five paper suites × all ten experiments.
    Tables,
    /// Register-pressure functions that make the allocator spill.
    Pressure,
    /// Small fuzz-shaped functions, where the service's per-job fixed
    /// cost weighs most.
    Small,
}

/// One workload: its population.
#[derive(Clone, Copy, Debug)]
pub struct Workload {
    /// Name as passed to `--workload`.
    pub name: &'static str,
    /// Population kind.
    pub kind: Kind,
    /// Distinct functions (the SPECint scale for `tables`).
    pub functions: u64,
}

/// Every workload, in run order.
pub const WORKLOADS: [Workload; 3] = [
    Workload {
        name: "tables",
        kind: Kind::Tables,
        functions: SPEC_SCALE,
    },
    Workload {
        name: "pressure",
        kind: Kind::Pressure,
        functions: 1200,
    },
    Workload {
        name: "small",
        kind: Kind::Small,
        functions: 3000,
    },
];

/// Looks a workload up by name.
pub fn by_name(name: &str) -> Option<Workload> {
    WORKLOADS.iter().copied().find(|w| w.name == name)
}

/// Shape of the `pressure` family: 32 mutable variables (MAXLIVE well
/// above the 16 allocatable registers) in single-level regions, so most
/// functions spill, split and rematerialize while the per-function cost
/// stays even (deeper nests make a few functions dominate both the
/// timings and the move counts).
pub fn pressure_shape() -> SynthConfig {
    SynthConfig {
        functions: 1,
        pool: 32,
        max_depth: 1,
        body_len: 12,
    }
}

/// The `pressure` pipeline, `Lφ+C`. The allocator gives up when neither
/// engine converges within its round budget; with ABI pins
/// (`Lφ,ABI+C`) that happens on about one function of this family in
/// 30 000, and on one in 5000 with 16-statement regions. This shape
/// without pins failed on none of 220 000 scanned.
const PRESSURE_EXPERIMENT: Experiment = Experiment::LphiC;

/// One unit of work: a function, the experiment to compile it under,
/// and the reference outputs of the source on each input vector.
#[derive(Clone, Debug)]
pub struct Item {
    /// Suite the function belongs to.
    pub suite: &'static str,
    /// Source function plus input vectors.
    pub bf: BenchFunction,
    /// Pipeline to run.
    pub exp: Experiment,
}

impl Item {
    /// The source's behaviour on every input vector (outputs or trap).
    pub fn reference(&self) -> Vec<Result<Vec<i64>, Trap>> {
        self.bf
            .inputs
            .iter()
            .map(|ins| interp::run(&self.bf.func, ins, FUEL).map(|r| r.outputs))
            .collect()
    }

    /// The job frame body after the id: `, "experiment": …, "inputs":
    /// …, "func": …}` — prefix `{"id": N` to send it.
    pub fn frame_tail(&self) -> String {
        let rows: Vec<String> = self
            .bf
            .inputs
            .iter()
            .map(|r| {
                let vals: Vec<String> = r.iter().map(i64::to_string).collect();
                format!("[{}]", vals.join(", "))
            })
            .collect();
        format!(
            ", \"experiment\": \"{:?}\", \"inputs\": [{}], \"func\": \"{}\"}}",
            self.exp,
            rows.join(", "),
            tossa_trace::escape_json(&self.bf.func.to_string())
        )
    }
}

/// The population of `w`. `quick` shrinks every generated suite for
/// smoke runs.
///
/// It is the same for every seed, so the move and spill counts are exact
/// from run to run and a change that worsens them by one shows; the seed
/// orders the work. `tables` is the paper's fixed suites, its SPECint
/// stand-in generator seeds `1..=40`, exactly the `BENCH_pr10.json`
/// suite. `pressure` is generator seeds `0..1200` of its family, `small`
/// the 3000-function fuzz suite of generator seed 0. (Drawing them from
/// the run's seed moved the count totals by 2–15% between seeds.)
pub fn population(w: &Workload, quick: bool) -> Vec<Item> {
    let n = if quick {
        (w.functions / 8).max(5)
    } else {
        w.functions
    };
    match w.kind {
        Kind::Tables => {
            let spec: Vec<BenchFunction> = (1..=n)
                .map(|k| generate_function(k, &SynthConfig::default()))
                .collect();
            let suites: [(&'static str, Vec<BenchFunction>); 5] = [
                ("VALcc1", kernels::valcc1()),
                ("VALcc2", kernels::valcc2()),
                ("example1-8", paper_examples::examples()),
                ("LAI Large", vocoder::lai_large()),
                ("SPECint", spec),
            ];
            let mut items = Vec::new();
            for (suite, fns) in suites {
                for &exp in Experiment::all() {
                    items.extend(fns.iter().map(|bf| Item {
                        suite,
                        bf: bf.clone(),
                        exp,
                    }));
                }
            }
            items
        }
        Kind::Pressure => (0..n)
            .map(|k| Item {
                suite: "pressure",
                bf: generate_function(k, &pressure_shape()),
                exp: PRESSURE_EXPERIMENT,
            })
            .collect(),
        Kind::Small => fuzz_suite(n as usize, 0)
            .functions
            .into_iter()
            .map(|bf| Item {
                suite: "small",
                bf,
                exp: Experiment::LphiAbiC,
            })
            .collect(),
    }
}
