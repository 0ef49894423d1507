#!/usr/bin/env bash
# Compares two revisions on one pipeline-benchmark workload in alternating
# pairs: the rule every performance claim in EXPERIMENTS.md is judged by.
#
#   scripts/pairs.sh [options] <workload> <parent-rev> [<change-rev>]
#   scripts/pairs.sh [options] --all <parent-rev> [<change-rev>]
#
# `--all` runs every workload BENCHMARK.json lists, one after the other on
# the same two builds, and prints one summary per workload.
#
# Each side is exported (`git archive`; without <change-rev> the change is
# the working tree, tracked and untracked files alike) into its own
# directory under --dir and builds its own `benchmark` with its own
# CARGO_TARGET_DIR. After the builds the script waits (--wait, default
# 120 s: a box is slow for about two minutes after a build), then runs
# --pairs runs per side. Pair i uses seed --seed + i, and the side that
# runs first alternates (the parent in even pairs). Every run is
#
#   benchmark <workload> --seed <seed> --seconds <S> --trace <T>
#
# and its full output is kept under <dir>/runs/. `--reuse` skips the
# exports, builds and wait, and runs the sides an earlier call left in
# --dir (another workload on the same two builds); `--report` runs
# nothing and summarises the runs --dir already holds.
#
# The summary prints, per metric of the result line, each side's median
# and quartiles, the ratio change/parent of the medians and how many pairs
# the change won; then every run's `correct`/`failed`; then, per
# end-to-end metric, the claim verdict: the change won at least nine pairs
# in ten and its median differs from the parent's by more than the
# parent's interquartile range; and the bound verdict: no end-to-end
# metric's median is worse than the parent's by more than its bound in
# BENCHMARK.json. `--trace 1` puts the per-layer metrics on
# the result line instead of the end-to-end ones, and adds the detection
# counts the two sides must agree on per seed.
#
# Too slow for scripts/check.sh: ten pairs of 20 s runs take 12–15 min, builds aside.
set -euo pipefail

pairs=10
seed=1
seconds=20
trace=0
wait_s=120
reuse=0
report=0
all=0
dir="${TMPDIR:-/tmp}/tms-pairs"
usage() {
  echo "usage: scripts/pairs.sh [--pairs N] [--seed S] [--seconds S] [--trace 0|1]" \
    "[--wait SECONDS] [--dir DIR] [--reuse] [--report] (<workload> | --all) <parent-rev>" \
    "[<change-rev>]" >&2
  exit 2
}
args=()
while [ $# -gt 0 ]; do
  case "$1" in
    --pairs) pairs="$2"; shift 2 ;;
    --seed) seed="$2"; shift 2 ;;
    --seconds) seconds="$2"; shift 2 ;;
    --trace) trace="$2"; shift 2 ;;
    --wait) wait_s="$2"; shift 2 ;;
    --dir) dir="$2"; shift 2 ;;
    --reuse) reuse=1; shift ;;
    --report) report=1; shift ;;
    --all) all=1; shift ;;
    -*) usage ;;
    *) args+=("$1"); shift ;;
  esac
done
repo="$(cd "$(dirname "$0")/.." && pwd)"
if ((all)); then
  [ ${#args[@]} -ge 1 ] && [ ${#args[@]} -le 2 ] || usage
  workloads=$(python3 -c 'import json, sys; print(" ".join(w["name"] for w in json.load(open(sys.argv[1]))["workloads"]))' "$repo/BENCHMARK.json")
  args=("" "${args[@]}")
else
  [ ${#args[@]} -ge 2 ] && [ ${#args[@]} -le 3 ] || usage
  workloads="${args[0]}"
fi
parent_rev="${args[1]}"
change_rev="${args[2]:-}"

# Exports one side into $dir/$1 and builds its benchmark there.
export_and_build() {
  local side="$1" rev="$2" out="$dir/$1"
  rm -rf "$out"
  mkdir -p "$out"
  if [ -n "$rev" ]; then
    git -C "$repo" archive "$rev" | tar -x -C "$out"
  else
    (cd "$repo" && git ls-files -z --cached --others --exclude-standard |
      tar -c --null -T - --ignore-failed-read 2>/dev/null) | tar -x -C "$out"
  fi
  echo "building $side (${rev:-working tree})" >&2
  CARGO_TARGET_DIR="$out/.bench_build" cargo build --release --quiet \
    --manifest-path "$out/benchmark/Cargo.toml"
}

mkdir -p "$dir"
if ((reuse == 0 && report == 0)); then
  export_and_build parent "$parent_rev"
  export_and_build change "$change_rev"
  echo "waiting ${wait_s} s after the builds" >&2
  sleep "$wait_s"
fi
runs="$dir/runs"
mkdir -p "$runs"

run() {
  local workload="$1" side="$2" s="$3"
  local log="$runs/$workload.trace$trace.$side.$s.log"
  # A failed check exits non-zero; the result line still says so.
  (cd "$dir/$side" && "$dir/$side/.bench_build/release/benchmark" "$workload" \
    --seed "$s" --seconds "$seconds" --trace "$trace") >"$log" 2>&1 || true
  tail -n 1 "$log" >"${log%.log}.json"
  echo "pair seed=$s $side done" >&2
}

for workload in $workloads; do
for ((i = 0; i < pairs && report == 0; i++)); do
  s=$((seed + i))
  if ((i % 2 == 0)); then
    run "$workload" parent "$s"; run "$workload" change "$s"
  else
    run "$workload" change "$s"; run "$workload" parent "$s"
  fi
done

python3 - "$runs/$workload.trace$trace" "$seed" "$pairs" "$dir/parent/BENCHMARK.json" <<'EOF'
import json, statistics, sys

prefix, seed, pairs, spec_path = sys.argv[1], int(sys.argv[2]), int(sys.argv[3]), sys.argv[4]
spec = json.load(open(spec_path))
better = {m["name"]: m["better"] for m in spec["end_to_end"] + spec["per_layer"]}
bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
seeds = range(seed, seed + pairs)

def result(side, s):
    try:
        return json.load(open(f"{prefix}.{side}.{s}.json"))
    except (OSError, ValueError):
        return {"correct": False, "failed": None, "metrics": {}}

res = {side: [result(side, s) for s in seeds] for side in ("parent", "change")}
for rs in res.values():
    for r in rs:
        r["metrics"] = {k: v["value"] if isinstance(v, dict) else v for k, v in r["metrics"].items()}

def quartiles(xs):
    q = statistics.quantiles(xs, n=4, method="inclusive") if len(xs) > 1 else [xs[0]] * 3
    return q[0], q[1], q[2]

print(f"# {prefix.rsplit('/', 1)[-1]}: {pairs} alternating pairs, seeds {seed}..{seed + pairs - 1}")
print(f"{'metric':42} {'parent p25/p50/p75':>30} {'change p25/p50/p75':>30} {'ratio':>7} {'wins':>6}")
verdicts = []
names = [n for n in res["parent"][0]["metrics"] if all(n in r["metrics"] for side in res.values() for r in side)]
for name in names:
    p = [r["metrics"][name] for r in res["parent"]]
    c = [r["metrics"][name] for r in res["change"]]
    lower = better.get(name, "higher") == "lower"
    wins = sum((b < a) if lower else (b > a) for a, b in zip(p, c))
    pq, cq = quartiles(p), quartiles(c)
    ratio = cq[1] / pq[1] if pq[1] else float("nan")
    fmt = lambda q: "/".join(f"{v / 1000:.1f}k" if abs(v) >= 1e4 else f"{v:.4g}" for v in q)
    print(f"{name:42} {fmt(pq):>30} {fmt(cq):>30} {ratio:7.3f} {wins:>3}/{pairs}")
    gained = (cq[1] < pq[1]) if lower else (cq[1] > pq[1])
    resolved = abs(cq[1] - pq[1]) > pq[2] - pq[0]
    if name in bounds:
        # How much worse the change's median is, as a share of the parent's.
        worse = ((cq[1] - pq[1]) if lower else (pq[1] - cq[1])) / pq[1] if pq[1] else 0.0
        claimed = gained and resolved and wins >= 0.9 * pairs
        verdicts.append((name, wins, claimed, worse, bounds[name]))
print()
for side, rs in res.items():
    print(f"{side}: correct " + " ".join(str(r["correct"]).lower() for r in rs)
          + "; failed " + " ".join(str(r["failed"]) for r in rs))
for name in ("run.reference_detections", "dsps.detections"):
    if name in names:
        same = all(a["metrics"][name] == b["metrics"][name] for a, b in zip(res["parent"], res["change"]))
        print(f"{name} identical per seed: {'yes' if same else 'NO'}")
print()
for name, wins, claimed, worse, bound in verdicts:
    why = "change better in >= 9/10 pairs and by more than the parent's IQR" if claimed else "not resolved"
    print(f"claim {name}: {'PASS' if claimed else '-'} ({wins}/{pairs} wins; {why})")
for name, wins, claimed, worse, bound in verdicts:
    verdict = "ok" if worse <= bound else "WORSE"
    print(f"bound {name}: {verdict} (change median {worse:+.1%} against the parent's, worse is +; bound {bound:.0%})")
print()
EOF
done
