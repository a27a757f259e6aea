//! One hostile frame must not take the service down: a line of a
//! million `[` is refused as `frame.json`, and the job after it on the
//! same stream still completes.
//!
//! The frame parser recurses once per nesting level, so without its
//! depth bound this line overflows the stack of the thread reading it
//! and aborts `serve` (exit 134), losing every in-flight job.

#![allow(clippy::unwrap_used, clippy::expect_used, clippy::panic)]

use std::io::Write;
use std::process::{Command, Stdio};
use tossa_trace::json::parse_json;

#[test]
fn deeply_nested_frame_is_rejected_and_the_next_job_completes() {
    let mut child = Command::new(env!("CARGO_BIN_EXE_serve"))
        .args(["--workers", "1"])
        .stdin(Stdio::piped())
        .stdout(Stdio::piped())
        .stderr(Stdio::null())
        .spawn()
        .expect("spawn serve");
    let mut input = "[".repeat(1_000_000);
    input.push('\n');
    input.push_str("{\"id\": 7, \"func\": \"func @f {\\nentry:\\n  %a = input\\n  ret %a\\n}\"}\n");
    {
        let mut stdin = child.stdin.take().expect("piped stdin");
        // A server that died mid-line closes the pipe; the exit status
        // below reports that, so a failed write is not the failure.
        let _ = stdin.write_all(input.as_bytes());
    }
    let out = child.wait_with_output().expect("wait for serve");
    let stdout = String::from_utf8(out.stdout).expect("UTF-8 reports");
    assert!(out.status.success(), "serve exited with {}", out.status);

    let reports: Vec<_> = stdout
        .lines()
        .map(|l| parse_json(l).unwrap_or_else(|e| panic!("bad line {l:?}: {e}")))
        .filter(|r| r.get("schema").and_then(|s| s.as_str()) == Some("tossa-job-report/1"))
        .collect();
    let outcome = |r: &tossa_trace::json::Json| {
        r.get("outcome")
            .and_then(|o| o.as_str())
            .unwrap_or("")
            .to_string()
    };
    assert_eq!(reports.len(), 2, "{stdout}");
    let rejected: Vec<_> = reports
        .iter()
        .filter(|r| outcome(r) == "frame_rejected")
        .collect();
    assert_eq!(rejected.len(), 1, "{stdout}");
    assert_eq!(
        rejected[0].get("error_class").and_then(|c| c.as_str()),
        Some("frame.json")
    );
    let completed: Vec<_> = reports
        .iter()
        .filter(|r| outcome(r) == "completed")
        .collect();
    assert_eq!(completed.len(), 1, "{stdout}");
    assert_eq!(completed[0].get("id").and_then(|i| i.as_u64()), Some(7));
}
