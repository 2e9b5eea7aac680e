#!/usr/bin/env bash
# Builds the benchmark and the shard worker it spawns from source, then
# runs it with the given arguments. Run from the repository root:
#
#   bash relbench/run.sh --workload cold_corpus --seed 1 --seconds 15 --trace 0
#
# Build output goes to $CARGO_TARGET_DIR (default: relbench/target).
set -euo pipefail
cargo build --release --quiet --offline --manifest-path relbench/Cargo.toml --bins >&2
exec "${CARGO_TARGET_DIR:-relbench/target}/release/relbench" "$@"
