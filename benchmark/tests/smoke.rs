//! `--quick` smoke run of every workload, untraced and traced: each run
//! must exit 0, end with the summary line, report every
//! metric `BENCHMARK.json` names for its mode with the listed unit, and
//! fail nothing.

use std::path::{Path, PathBuf};
use std::process::Command;
use std::time::Instant;
use tossa_benchmark::report::{metrics_from_json, BenchSpec};
use tossa_trace::json::{parse_json, Json};

fn repo_root() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("..")
}

/// Builds `serve` (release) and returns the executable Cargo reports.
fn serve_binary() -> String {
    let out = Command::new(env!("CARGO"))
        .current_dir(repo_root())
        .args([
            "build",
            "--release",
            "--offline",
            "--quiet",
            "-p",
            "tossa-server",
            "--bin",
            "serve",
            "--message-format=json",
        ])
        .output()
        .expect("cargo runs");
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    String::from_utf8_lossy(&out.stdout)
        .lines()
        .filter_map(|l| parse_json(l).ok())
        .find_map(|doc| {
            doc.get("executable")
                .and_then(Json::as_str)
                .map(str::to_string)
        })
        .expect("cargo reports the serve executable")
}

#[test]
fn quick_runs_emit_every_metric_and_fail_nothing() {
    let root = repo_root();
    let spec = BenchSpec::load(root.join("BENCHMARK.json").to_str().unwrap()).unwrap();
    let serve = serve_binary();
    let out_dir = Path::new(env!("CARGO_TARGET_TMPDIR")).join("smoke");
    let started = Instant::now();
    for w in &spec.workloads {
        for trace in [false, true] {
            let out = Command::new(env!("CARGO_BIN_EXE_tossa-benchmark"))
                .current_dir(&root)
                .args(["--workload", w, "--seed", "3", "--quick", "--trace"])
                .arg(if trace { "1" } else { "0" })
                .arg("--serve")
                .arg(&serve)
                .arg("--out")
                .arg(&out_dir)
                .output()
                .expect("benchmark runs");
            let stdout = String::from_utf8_lossy(&out.stdout);
            let stderr = String::from_utf8_lossy(&out.stderr);
            assert!(out.status.success(), "{w} trace={trace}: {stderr}");
            let last = stdout.lines().last().expect("a summary line");
            let doc = parse_json(last).expect("the summary line is JSON");
            assert_eq!(
                doc.get("correct"),
                Some(&Json::Bool(true)),
                "{w}: {last}\n{stderr}"
            );
            assert_eq!(
                doc.get("failed").and_then(Json::as_u64),
                Some(0),
                "{w}: {stderr}"
            );
            assert!(doc.get("attempted").and_then(Json::as_u64) >= Some(1));
            let metrics = metrics_from_json(doc.get("metrics").expect("metrics"));
            let want = spec.required(trace);
            assert_eq!(metrics.len(), want.len(), "{w} trace={trace}");
            for m in want {
                let got = metrics.iter().find(|x| x.name == m.name);
                let got = got.unwrap_or_else(|| panic!("{w}: {} missing", m.name));
                assert_eq!(got.unit, m.unit, "{w}: {}", m.name);
                assert!(got.value.is_finite(), "{w}: {}", m.name);
            }
            if trace {
                let trace_file = out_dir.join(format!("trace_{w}_3.json"));
                let text = std::fs::read_to_string(&trace_file).expect("traced run writes a trace");
                parse_json(&text).expect("the trace is JSON");
            }
        }
    }
    let elapsed = started.elapsed().as_secs();
    assert!(elapsed < 60, "quick runs took {elapsed} s");
}
