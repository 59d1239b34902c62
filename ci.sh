#!/usr/bin/env bash
# Pre-merge gate for the pathix workspace. Run from the repository root:
#
#   ./ci.sh
#
# Stages, in order (each must pass before the next runs):
#   1. cargo fmt --check      — formatting is canonical
#   2. cargo build --release  — the workspace compiles with optimizations
#   3. cargo test -q --workspace — every test of every workspace crate
#   4. cargo clippy -D warnings — the workspace lint set, including
#      clippy::unwrap_used = deny, over every target
#   5. pathix-lint check      — the R1-R7 architectural invariants
#      (I/O confinement, determinism, panic-freedom, layering,
#      concurrency confinement, fault containment, governor
#      confinement; see DESIGN.md "Statically enforced invariants")
#   6. cargo bench --no-run   — criterion benches stay compiling
#   7. perfbench tests        — the repository benchmark (a separate
#      package under perfbench/) still builds against the engine API
#      and passes its own tests
#   8. report throughput scaling chaos overload --fast — the four engine
#      harness smokes (small documents, instant disk profile, no latency
#      pacing, no BENCH_PRn.json written), each gated on every acceptance
#      check in its artifact: queue outcomes agree and zero page copies
#      (throughput); parallel == sequential and zero page copies
#      (scaling); every fault scenario passes, zero wrong answers
#      (chaos); deterministic shedding of exactly the over-capacity tail,
#      zero wrong answers, p99 sim-latency bounded by the hard deadline
#      (overload)
set -euo pipefail
cd "$(dirname "$0")"

echo "==> cargo fmt --check"
cargo fmt --check

echo "==> cargo build --release"
cargo build --release

echo "==> cargo test -q --workspace"
cargo test -q --workspace

echo "==> cargo clippy --workspace --all-targets -- -D warnings"
cargo clippy --workspace --all-targets -- -D warnings

echo "==> pathix-lint check"
cargo run -q -p pathix-lint -- check

echo "==> cargo bench --no-run (compile gate)"
cargo bench --no-run --workspace

echo "==> perfbench tests"
cargo test --offline -q --manifest-path perfbench/Cargo.toml

echo "==> engine harness smokes (fast mode)"
cargo run -q --release -p pathix-bench --bin report -- throughput scaling chaos overload --fast

echo "ci: all gates passed"
