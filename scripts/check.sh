#!/usr/bin/env bash
# Full local gate: release build, every crate's tests, the snapshot
# guards, the pipeline benchmark's own tests and smoke run, strict clippy.
set -euo pipefail
cd "$(dirname "$0")/.."

cargo build --release
cargo test -q
# Every committed BENCH_*.json must parse under the one schema and hold
# its own acceptance bars; a live smoke re-run must hold the live ones.
cargo run --release -p tms-bench --bin experiments -- guard all
cargo test --release --locked --manifest-path benchmark/Cargo.toml
benchmark/run.sh --smoke
cargo clippy --workspace -- -D warnings
