#!/usr/bin/env bash
# Diffs the reproduction binaries' outputs against the goldens in this
# directory: table2, ablation, rtm_sweep, and fig8 up to its host
# wall-clock throughput section. Any change to the simulated cycles, the
# µop streams or the vectorizer's verdicts shows up here.
#
#   bash tests/golden/check_outputs.sh                  # all four outputs
#   bash tests/golden/check_outputs.sh --engine native  # fig8 only, on that engine
#
# On an intentional change, regenerate the golden from the binary's
# output (for fig8, everything before "=== Execution-engine throughput").
set -euo pipefail
cd "$(dirname "$0")/../.."
cargo build --release --quiet -p flexvec-bench --bin table2 --bin ablation --bin rtm_sweep --bin fig8
golden=tests/golden
status=0
if [[ $# -eq 0 ]]; then
  for bin in table2 ablation rtm_sweep; do
    ./target/release/"$bin" | diff -u "$golden/$bin.txt" - || status=1
  done
fi
./target/release/fig8 "$@" | sed '/^=== Execution-engine throughput/,$d' |
  diff -u "$golden/fig8.txt" - || status=1
exit "$status"
