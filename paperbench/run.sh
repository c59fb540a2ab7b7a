#!/usr/bin/env bash
# Builds the repository's binaries and the benchmark in release mode, then
# runs the benchmark with the given arguments. Run from the repository root:
#
#   bash paperbench/run.sh --workload paper --seed 1 --seconds 20 --trace 0
#
# Build output goes to stderr; the benchmark's result is the last stdout line.
set -euo pipefail
# Both builds share one target directory, `target/` unless the caller set one.
export CARGO_TARGET_DIR="${CARGO_TARGET_DIR:-target}"
cargo build --release --offline --quiet --manifest-path Cargo.toml -p leaky_bench --bins 1>&2
cargo build --release --offline --quiet --manifest-path paperbench/Cargo.toml 1>&2
# Not `exec`: resource usage survives exec, so the benchmark would count
# the compilers above among its children when it reports peak memory.
"$CARGO_TARGET_DIR/release/paperbench" "$@"
