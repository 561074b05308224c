#!/usr/bin/env bash
# Tier-1 gate: build, test, lint. Run from the repository root.
set -euo pipefail
cd "$(dirname "$0")/.."

cargo build --release
# The benchmark package is outside the workspace and may not change with
# an API refactor: compile it, so a break fails here and not in the
# benchmark pipeline.
cargo build --release --offline --manifest-path benchmark/Cargo.toml
# The suite must pass at the exact sequential fallback AND at a fixed
# multi-thread budget (results are bit-identical by design; the parity
# property tests enforce it, these two runs make sure nothing is
# budget-sensitive).
ANTIDOTE_THREADS=1 cargo test -q
ANTIDOTE_THREADS=4 cargo test -q
# ...and once with the kernel backend pinned to the scalar reference:
# the SIMD backends are bit-exact against it by property test, so this
# run proves no code path *depends* on a SIMD backend being selected.
ANTIDOTE_KERNEL_BACKEND=scalar cargo test -q
cargo clippy --workspace -- -D warnings
# Serving-path regression gate: deterministic open-loop load; fails on
# any dropped request, unexpected error, or budget overshoot.
cargo run --release -p antidote-bench --bin serve_bench -- --smoke
# Overload-survival gate: open-loop traces driven past measured capacity
# plus a chaos phase with replicas killed mid-burst. Fails on any
# untyped terminal state, degrade-after-shed ordering, unaccounted
# kills, or a chaos p99 beyond the deadline-derived bound. Run at both
# thread budgets like the test suite: the shed/degrade/chaos paths must
# not be budget-sensitive.
ANTIDOTE_THREADS=1 cargo run --release -p antidote-bench --bin overload_bench -- --smoke
ANTIDOTE_THREADS=4 cargo run --release -p antidote-bench --bin overload_bench -- --smoke
# Observability gates: neither enabled obs nor the fully-traced path
# (per-request collector + flight-recorder record per forward) may slow
# the dense forward beyond the ratio bound (DESIGN.md §9, §14), and the
# per-layer profile must be internally consistent (time%/MACs% sum to
# 100, attribution exact).
cargo run --release -p antidote-bench --bin profile_report -- --overhead-smoke
cargo run --release -p antidote-bench --bin profile_report
# Intra-op parallelism gate: bit-exact thread parity (GEMM + conv
# fwd/bwd + masked executor) and >=1.5x GEMM speedup at 4 threads
# (speedup asserted only on hosts with >=4 hardware threads). Also
# records per-kernel-backend GEMM rows into results/par.{json,txt}.
cargo run --release -p antidote-bench --bin par_bench -- --smoke
# Int8 quantization gate: quantized top-1 within 1 pt of fp32 at every
# tested prune schedule, and the i8 GEMM strictly reduces byte traffic.
# On >=4-thread hosts the wall-clock gate runs at 4 threads: int8 must
# beat f32 outright when the AVX2 backend is active, or reach parity on
# lesser backends; smaller hosts measure at their real budget and skip
# the gate with an honest label. Per-backend rows land in
# results/quant.{json,txt}.
cargo run --release -p antidote-bench --bin quant_bench -- --smoke
# HTTP front-end gate: an open-loop trace replayed by concurrent clients
# over real sockets, through the parser, registry (fp32 + int8 twins),
# SLO queue, and batched forward, ending in a graceful drain. Every
# event carries an `x-antidote-trace` id that must round-trip, and the
# smoke plants an errored request and asserts `/debug/traces` serves it
# back from the flight recorder. Fails on any untyped failure, status
# outside {200,408,429,503}, budget overshoot, unserved model, a
# drain-lost response, or a broken trace echo. Both thread budgets: the
# socket and tracing paths must not be budget-sensitive either.
ANTIDOTE_THREADS=1 cargo run --release -p antidote-bench --bin http_bench -- --smoke
ANTIDOTE_THREADS=4 cargo run --release -p antidote-bench --bin http_bench -- --smoke
# .adm model-format gate: convert -> cold-start -> serve, bit-exactly.
# First run trains a tiny VGG, converts fp32 + int8 .adm artifacts
# in-process, cold-starts a registry from the directory, and asserts the
# file-loaded engines serve logits bit-identical to in-memory builds.
# The second leg re-does the round trip through the *shipped CLI*: the
# emitted checkpoint goes through the `convert` binary (plain and
# --quantize int8) and the resulting files must cold-start and serve
# bit-exactly too. File names must stay tiny-fp32.adm / tiny-int8.adm —
# the bench's probe loop expects exactly those models.
ADM_DIR=$(mktemp -d)
trap 'rm -rf "$ADM_DIR"' EXIT
ANTIDOTE_THREADS=1 cargo run --release -p antidote-bench --bin adm_bench -- --smoke --emit-checkpoint "$ADM_DIR/ckpt.json"
cargo run --release -p antidote-modelfile --bin convert -- --checkpoint "$ADM_DIR/ckpt.json" --out "$ADM_DIR/tiny-fp32.adm"
cargo run --release -p antidote-modelfile --bin convert -- --checkpoint "$ADM_DIR/ckpt.json" --out "$ADM_DIR/tiny-int8.adm" --quantize int8 --calibrate minmax
ANTIDOTE_THREADS=1 cargo run --release -p antidote-bench --bin adm_bench -- --smoke --model-dir "$ADM_DIR"
# Documentation gate: rustdoc must build warning-clean (broken intra-doc
# links are errors; antidote-tensor/par/obs deny missing docs).
RUSTDOCFLAGS="-D warnings" cargo doc --workspace --no-deps
