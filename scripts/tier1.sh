#!/usr/bin/env bash
# Tier-1 gate: build, test, lint. Run from the repository root.
# Correctness gates are ordinary `#[test]`s inside `cargo test`;
# performance is judged by the benchmark package (BENCHMARK.json), which
# this script compiles and unit-tests but does not run.
set -euo pipefail
cd "$(dirname "$0")/.."

cargo build --release
# The benchmark package is outside the workspace and may not change with
# an API refactor: compile it, so a break fails here and not in the
# benchmark pipeline.
cargo build --release --offline --manifest-path benchmark/Cargo.toml
# ...and run its own unit tests, among them the check that BENCHMARK.json
# at the root is the package's metric table.
cargo test --release --offline -q --manifest-path benchmark/Cargo.toml
# The quickstart example asserts that dynamic pruning cuts measured MACs.
cargo run --release --example quickstart
# The suite must pass at the exact sequential fallback AND at a fixed
# multi-thread budget (results are bit-identical by design; the parity
# property tests enforce it, these two runs make sure nothing is
# budget-sensitive). `--no-fail-fast`: one failing test binary must not
# hide the results of the others.
ANTIDOTE_THREADS=1 cargo test -q --no-fail-fast
ANTIDOTE_THREADS=4 cargo test -q --no-fail-fast
# ...and once with the kernel backend pinned to the scalar reference:
# the SIMD backends are bit-exact against it by property test, so this
# run proves no code path *depends* on a SIMD backend being selected.
ANTIDOTE_KERNEL_BACKEND=scalar cargo test -q --no-fail-fast
cargo clippy --workspace --all-targets -- -D warnings
# Documentation gate: rustdoc must build warning-clean (broken intra-doc
# links are errors; antidote-tensor/par/obs deny missing docs).
RUSTDOCFLAGS="-D warnings" cargo doc --workspace --no-deps
