#!/usr/bin/env bash
# Builds the workspace and the benchmark from source, then runs the
# benchmark from the repository root.
#
#   benchmark/run.sh [--workload tables|pressure|small|all] [--seed S]
#                    [--seconds N] [--trace 0|1] [--quick]
#   benchmark/run.sh repeat --runs N [same flags]
#   benchmark/run.sh compare PARENT.json... -- CHANGE.json...
#
# Binaries land in $CARGO_TARGET_DIR when it is set, else in target/
# (workspace) and benchmark/target/ (benchmark).
set -euo pipefail

root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
cd "$root"

cargo build --release --offline --quiet --workspace --manifest-path Cargo.toml
cargo build --release --offline --quiet --manifest-path benchmark/Cargo.toml

serve="${CARGO_TARGET_DIR:-target}/release/serve"
exec "${CARGO_TARGET_DIR:-benchmark/target}/release/tossa-benchmark" "$@" --serve "$serve"
