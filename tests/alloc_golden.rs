//! Byte-identity pin for the register allocator, the SSA front end and
//! the checked pipeline.
//!
//! Two populations are compiled end to end (front end, experiment
//! pipeline, `allocate`), and each allocated function's printed text
//! plus its `AllocStats` are folded into one FNV-1a digest per
//! population. The pinned digests are those of the hash-map bookkeeping
//! that the dense per-id tables and the occurrence-local spill rewrites
//! replaced: a change to how the front end or the allocator keeps its
//! books must leave every position, victim, round, temporary name,
//! variable id and statistic as it was.
//!
//! The checked path (`run_checked` with allocation, the service's
//! compile) is pinned the same way over the same two populations and
//! over the four hand-written suites under all ten experiments, so the
//! Sreedhar and `pinningCSSA` paths are covered too: each outcome's
//! printed code, its move count and whether it reported an error. How
//! often the guards re-verify must not change what they return.
//!
//! FNV-1a rather than `DefaultHasher`: the standard hasher's algorithm
//! is unspecified and may change between toolchains, which would move
//! the digest without any change to the allocator.
//!
//! When a deliberate allocator change moves a digest, re-pin it with the
//! value printed in the failure message and say in the change why the
//! output moved.

use tossa::bench::checked::{fuzz_suite, run_checked, CheckedOptions};
use tossa::bench::runner::{apply_alloc, run_experiment};
use tossa::bench::suites::synth::{generate_function, SynthConfig};
use tossa::bench::suites::{kernels, paper_examples, vocoder, BenchFunction};
use tossa::core::coalesce::CoalesceOptions;
use tossa::core::Experiment;

/// The benchmark's `pressure` family: 32 mutable variables in
/// single-level 12-statement regions, so most functions spill, split and
/// rematerialize over several rounds.
const PRESSURE: SynthConfig = SynthConfig {
    functions: 1,
    pool: 32,
    max_depth: 1,
    body_len: 12,
};

/// Functions per population.
const N: usize = 300;

/// Digest of `pressure` seeds `0..300` under `Lφ+C`.
const PRESSURE_DIGEST: u64 = 0x0584_4a3b_7790_fb9f;

/// Digest of the first 300 functions of `fuzz_suite(3000, 0)` under
/// `Lφ,ABI+C` (the benchmark's `small` workload).
const FUZZ_DIGEST: u64 = 0x33bf_1fcc_5b34_149a;

/// Checked-path digest of `pressure` seeds `0..300` under `Lφ+C`.
const CHECKED_PRESSURE_DIGEST: u64 = 0x606a_f714_daff_cf8f;

/// Checked-path digest of `fuzz_suite(300, 0)` under `Lφ,ABI+C`.
const CHECKED_FUZZ_DIGEST: u64 = 0xa777_00c2_d5c0_6669;

/// Checked-path digests of the hand-written suites, each over all ten
/// experiments in `Experiment::all()` order.
const CHECKED_SUITE_DIGESTS: [(&str, u64); 4] = [
    ("VALcc1", 0xc32a_cae7_71e8_57d0),
    ("VALcc2", 0x3ed0_7f38_ffcb_23e0),
    ("example1-8", 0xf04b_e8eb_24ed_f5d9),
    ("LAI Large", 0x0be8_05b4_a58f_b4de),
];

/// 64-bit FNV-1a.
struct Fnv1a(u64);

impl Fnv1a {
    fn new() -> Fnv1a {
        Fnv1a(0xcbf2_9ce4_8422_2325)
    }

    fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
}

fn digest<'a>(population: impl Iterator<Item = &'a BenchFunction>, exp: Experiment) -> u64 {
    let opts = CoalesceOptions::default();
    let mut h = Fnv1a::new();
    for bf in population {
        let mut r = run_experiment(&bf.func, exp, &opts);
        apply_alloc(&mut r);
        let stats = r.alloc.expect("allocation post-pass ran");
        h.write(r.func.to_string().as_bytes());
        h.write(format!("{stats:?}\n").as_bytes());
    }
    h.0
}

fn checked_digest<'a>(
    population: impl Iterator<Item = &'a BenchFunction>,
    exps: &[Experiment],
) -> u64 {
    let opts = CoalesceOptions::default();
    let copts = CheckedOptions {
        alloc: true,
        ..CheckedOptions::default()
    };
    let population: Vec<&BenchFunction> = population.collect();
    let mut h = Fnv1a::new();
    for &exp in exps {
        for bf in &population {
            let o = run_checked(bf, exp, &opts, &copts);
            h.write(o.func.to_string().as_bytes());
            h.write(format!("moves {} error {}\n", o.moves, o.error.is_some()).as_bytes());
        }
    }
    h.0
}

fn check(name: &str, got: u64, want: u64) {
    assert_eq!(
        got, want,
        "{name}: output changed (digest {got:#018x}, pinned {want:#018x})"
    );
}

#[test]
fn pressure_family_allocates_byte_identically() {
    let funcs: Vec<BenchFunction> = (0..N as u64)
        .map(|seed| generate_function(seed, &PRESSURE))
        .collect();
    check(
        "pressure seeds 0..300, Lφ+C",
        digest(funcs.iter(), Experiment::LphiC),
        PRESSURE_DIGEST,
    );
}

#[test]
fn fuzz_population_allocates_byte_identically() {
    // `fuzz_suite(n, 0)` draws function k from seed k, so its first 300
    // functions are those of the 3000-function suite.
    let suite = tossa::bench::checked::fuzz_suite(N, 0);
    check(
        "fuzz_suite(3000, 0)[..300], Lφ,ABI+C",
        digest(suite.functions.iter(), Experiment::LphiAbiC),
        FUZZ_DIGEST,
    );
}

#[test]
fn pressure_family_checked_path_is_byte_identical() {
    let funcs: Vec<BenchFunction> = (0..N as u64)
        .map(|seed| generate_function(seed, &PRESSURE))
        .collect();
    check(
        "checked: pressure seeds 0..300, Lφ+C",
        checked_digest(funcs.iter(), &[Experiment::LphiC]),
        CHECKED_PRESSURE_DIGEST,
    );
}

#[test]
fn fuzz_population_checked_path_is_byte_identical() {
    let suite = fuzz_suite(N, 0);
    check(
        "checked: fuzz_suite(300, 0), Lφ,ABI+C",
        checked_digest(suite.functions.iter(), &[Experiment::LphiAbiC]),
        CHECKED_FUZZ_DIGEST,
    );
}

#[test]
fn hand_written_suites_checked_path_is_byte_identical() {
    let suites = [
        kernels::valcc1(),
        kernels::valcc2(),
        paper_examples::examples(),
        vocoder::lai_large(),
    ];
    for (funcs, (name, want)) in suites.iter().zip(CHECKED_SUITE_DIGESTS) {
        check(
            &format!("checked: {name} × all experiments"),
            checked_digest(funcs.iter(), Experiment::all()),
            want,
        );
    }
}
