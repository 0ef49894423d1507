#!/usr/bin/env bash
# Full local gate: release build, every crate's tests, the vendored
# channel's, byte buffers', locks' and JSON parser's tests, the elastic
# suite in release, the argument-free examples, the snapshot guards, the
# pipeline benchmark's own tests and smoke run, the one-serialiser gate,
# strict clippy, warning-free rustdoc.
set -euo pipefail
cd "$(dirname "$0")/.."

cargo build --release
cargo test -q
# `vendor/` is outside the workspace, and the channel under every hand-off,
# the buffers under every durable record, the locks around every shared
# structure and the JSON parser under the snapshot reader and the trace
# tests are in-repo code: their tests run here or nowhere.
cargo test -q --manifest-path vendor/crossbeam/Cargo.toml
cargo test -q --manifest-path vendor/bytes/Cargo.toml
cargo test -q --manifest-path vendor/parking_lot/Cargo.toml
cargo test -q --manifest-path vendor/serde_json/Cargo.toml
# The rebalancer scenarios are wall-clock driven; the optimized build is
# the one that outruns them if their pacing ever breaks.
cargo test -q --release -p tms-dsps --test elastic
# The README's front door: `cargo test` compiles the examples and runs none,
# and `rule_allocation` is the only program outside the tests that parses a
# topology XML. (`replay_csv` takes a file argument and is left out.)
for example in quickstart rule_allocation cep_standalone dynamic_thresholds trace_quickstart; do
    cargo run --release --quiet --example "$example" > /dev/null
done
# Every committed BENCH_*.json must parse under the one schema and hold
# its own acceptance bars; a live smoke re-run must hold the live ones.
cargo run --release -p tms-bench --bin experiments -- guard all
cargo test --release --locked --manifest-path benchmark/Cargo.toml
benchmark/run.sh --smoke
# One serialiser: outside the test modules, byte order is spelled only in
# `transport.rs` (the value codec and the frame) and in `grouping.rs`'s
# key hasher, which hashes and does not serialise.
second_serialiser=$(
    find crates/*/src -name '*.rs' \
        ! -path crates/dsps/src/transport.rs ! -path crates/dsps/src/grouping.rs |
        while read -r file; do
            awk -v file="$file" '
                test_attr && /^mod tests/ { exit }
                { test_attr = /^#\[cfg\(test\)\]/ }
                /to_le_bytes|from_le_bytes|to_bits\(\)\.to_le/ {
                    print file ":" FNR ":" $0
                }' "$file"
        done
)
if [ -n "$second_serialiser" ]; then
    echo "a second serialiser: encode through tms_dsps::transport's WireCodec instead" >&2
    echo "$second_serialiser" >&2
    exit 1
fi
cargo clippy --workspace --all-targets -- -D warnings
# The API docs build clean: a link to a deleted or private item fails here.
RUSTDOCFLAGS="-D warnings" cargo doc --workspace --no-deps
