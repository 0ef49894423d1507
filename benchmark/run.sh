#!/usr/bin/env bash
# Builds the benchmark once, then runs the four workloads in order with
# one seed, traced, printing every metric by name. `--smoke` runs a
# twentieth of the tuples, a tenth of the measuring window and a single
# set-up (under 30 s in all) for local checks; its numbers are not
# comparable with full runs.
set -euo pipefail
cd "$(dirname "$0")/.."

seed=1
extra=()
for arg in "$@"; do
  case "$arg" in
    --smoke) extra+=(--smoke) ;;
    --seed=*) seed="${arg#--seed=}" ;;
    *) echo "usage: benchmark/run.sh [--smoke] [--seed=N]" >&2; exit 2 ;;
  esac
done

bench=(cargo run --release --quiet --manifest-path benchmark/Cargo.toml --)
cargo build --release --quiet --manifest-path benchmark/Cargo.toml
for workload in replay-table6 replay-lone replay-static paced-table6; do
  # The last line is the driver's result object; the table above it says the same.
  "${bench[@]}" "$workload" --seed "$seed" --trace 1 "${extra[@]}" | sed '$d'
done
echo "full reports and traces: benchmark/out/"
