//! `serve` refuses a command line it does not understand: an unknown
//! argument, or a value flag without its value, prints the usage line
//! to stderr, nothing to stdout, and exits 2 before any mode starts.
//!
//! Stdin is null, so a `serve` that ignored the mistake would run its
//! stdin mode over an empty stream and exit 0.

#![allow(clippy::unwrap_used, clippy::expect_used, clippy::panic)]

use std::process::{Command, Stdio};

fn refused(args: &[&str]) {
    let out = Command::new(env!("CARGO_BIN_EXE_serve"))
        .args(args)
        .stdin(Stdio::null())
        .output()
        .expect("run serve");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(2), "serve {args:?}: {stderr}");
    assert!(out.stdout.is_empty(), "serve {args:?} wrote to stdout");
    assert!(
        stderr.contains("usage: serve"),
        "serve {args:?} printed no usage line: {stderr}"
    );
}

#[test]
fn unknown_arguments_are_refused() {
    refused(&["--wokers", "3", "--bogus"]);
    refused(&["--workers", "1", "extra"]);
}

#[test]
fn value_flags_without_their_value_are_refused() {
    refused(&["--workers"]);
    refused(&["--tcp"]);
    refused(&["--workers", "1", "--report"]);
}

#[test]
fn malformed_numbers_are_refused() {
    refused(&["--workers", "three"]);
    refused(&["--soak", "many"]);
}
