#!/usr/bin/env bash
# Records one point of the benchmark trajectory (ROADMAP 4a): runs the
# unchanged end-to-end benchmark (every workload, untraced then traced,
# ~3.5 min) and keeps its metrics as BENCH_<pr>.json in this repository,
# folded by scripts/bench_diff: the workload-independent probe rows are
# stored once, as the median of the five traced copies, and
# `git_describe` names the measured tree (`git describe --always
# --dirty`). An optional second argument names another checkout to
# measure (the parent commit's clone), so both points of a comparison
# come from one session on one host; compare them with scripts/bench_diff.
set -euo pipefail
[ $# -ge 1 ] && [ $# -le 2 ] || { echo "usage: $0 <pr> [checkout]" >&2; exit 2; }
here="$(cd "$(dirname "$0")/.." && pwd)"
tree="$(cd "${2:-$here}" && pwd)"
run="bench-record-$1"
cargo run --release --offline --quiet --manifest-path "$tree/benchmark/Cargo.toml" -- \
    --seed 42 --out "$run"
"$here/scripts/bench_diff" --fold "$tree/benchmark/out/$run/metrics.json" \
    "$(git -C "$tree" describe --always --dirty)" > "$here/BENCH_$1.json"
echo "wrote $here/BENCH_$1.json"
