#!/usr/bin/env bash
# Builds flexbench when its binary is missing or older than any source it
# is built from, then runs it with the given arguments, e.g.
#
#   bash flexbench/run.sh --workload hot-run --seed 1 --seconds 20 --trace 0
#
# `cargo run` would do the same, but the serve crate's build script
# re-runs in a checkout without .git/HEAD, which recompiles the daemon
# before every run.
set -euo pipefail
cd "$(dirname "$0")/.."
target="${CARGO_TARGET_DIR:-flexbench/target}"
bin="$target/release/flexbench"
if [[ ! -x "$bin" ]] ||
  [[ -n "$(find BENCHMARK.json Cargo.toml crates vendor tests/corpus flexbench \
    -newer "$bin" -type f -not -path 'flexbench/target/*' -not -path 'flexbench/out/*' \
    -print -quit)" ]]; then
  cargo build --release --quiet --manifest-path flexbench/Cargo.toml
fi
exec "$bin" "$@"
