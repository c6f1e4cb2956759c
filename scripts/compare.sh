#!/usr/bin/env bash
# Alternating A/B comparison of perfbench between a git revision and the
# working tree.
#
#   scripts/compare.sh <rev> <workload> [pairs] [seconds] [seed]
#
# Builds <rev>'s perfbench in a git worktree at target/compare/<sha>
# (kept for the next call; `git worktree remove target/compare/<sha>`
# drops it) and the working tree's perfbench into target/compare/work,
# then runs the two builds alternately for [pairs] pairs (default 10) of
# [seconds]-second untraced runs (default 25, the run length in
# BENCHMARK.json) of <workload> at the same --seed [seed] (default 3),
# flipping which side runs first every pair. Each run's stdout is kept
# in target/compare/runs/.
#
# For each end-to-end metric BENCHMARK.json declares, prints both sides'
# medians and interquartile ranges (statistics.quantiles, n=4), the
# change against <rev> in the metric's worse direction, and the pairs
# the change won (ties count for neither). `gain` is "yes" when the
# change won at least nine tenths of the pairs and its median beats
# <rev>'s by more than <rev>'s IQR.
#
# Exits non-zero if a build or run fails, or if any run reports
# failed > 0. Needs git, cargo and python3.
set -euo pipefail
cd "$(dirname "$0")/.."

if [ $# -lt 2 ] || [ $# -gt 5 ]; then
    echo "usage: $0 <rev> <workload> [pairs] [seconds] [seed]" >&2
    exit 2
fi
rev="$1"
workload="$2"
pairs="${3:-10}"
seconds="${4:-25}"
seed="${5:-3}"
for n in "$pairs" "$seconds" "$seed"; do
    case "$n" in
        '' | *[!0-9]*)
            echo "compare.sh: pairs, seconds and seed must be whole numbers, not '$n'" >&2
            exit 2
            ;;
    esac
done
if [ "$pairs" -lt 1 ]; then
    echo "compare.sh: pairs must be at least 1" >&2
    exit 2
fi

sha="$(git rev-parse --verify "$rev^{commit}")"
base_dir="target/compare/$sha"
if [ ! -e "$base_dir/.git" ]; then
    echo "==> git worktree add --detach $base_dir $sha"
    git worktree add --detach "$base_dir" "$sha" >&2
fi
echo "==> building perfbench at $rev ($sha)"
cargo build --release --quiet --offline --manifest-path "$base_dir/perfbench/Cargo.toml"
echo "==> building perfbench in the working tree"
CARGO_TARGET_DIR=target/compare/work \
    cargo build --release --quiet --offline --manifest-path perfbench/Cargo.toml
base_bin="$base_dir/perfbench/target/release/perfbench"
work_bin="target/compare/work/release/perfbench"

runs="target/compare/runs"
mkdir -p "$runs"
tag="$workload-s$seed-$(date +%Y%m%dT%H%M%S)-$$"
results="$runs/$tag.tsv"
: > "$results"
for ((p = 1; p <= pairs; p++)); do
    if ((p % 2)); then order="base work"; else order="work base"; fi
    for side in $order; do
        if [ "$side" = base ]; then bin="$base_bin"; else bin="$work_bin"; fi
        out="$runs/$tag-pair$p-$side.txt"
        echo "==> pair $p/$pairs: $side"
        "$bin" --workload "$workload" --seed "$seed" --seconds "$seconds" --trace 0 > "$out"
        printf '%s\t%s\t%s\n' "$p" "$side" "$(tail -n 1 "$out")" >> "$results"
    done
done

python3 - "$results" "$rev" <<'EOF'
import json
import statistics
import sys

results, rev = sys.argv[1], sys.argv[2]
declared = json.load(open("BENCHMARK.json"))["end_to_end"]
runs = {"base": {}, "work": {}}
failed = []
for line in open(results):
    pair, side, body = line.rstrip("\n").split("\t", 2)
    result = json.loads(body)
    if result["failed"] > 0:
        failed.append(f"pair {pair} {side}: {result['failed']} of {result['attempted']} ops failed")
    runs[side][int(pair)] = {k: v["value"] for k, v in result["metrics"].items()}
pairs = sorted(runs["base"])


def spread(values):
    if len(values) < 2:
        return 0.0
    q1, _, q3 = statistics.quantiles(values, n=4)
    return q3 - q1


print(f"{len(pairs)} pairs; base = {rev}, change = working tree")
print(f"{'metric':<12} {'unit':<4} {'base p50':>10} {'base IQR':>9} "
      f"{'change p50':>10} {'chg IQR':>9} {'worse by':>9} {'wins':>6}  gain")
for m in declared:
    name, lower = m["name"], m["better"] == "lower"
    base = [runs["base"][p][name] for p in pairs]
    work = [runs["work"][p][name] for p in pairs]
    bm, wm = statistics.median(base), statistics.median(work)
    better = (lambda w, b: w < b) if lower else (lambda w, b: w > b)
    wins = sum(better(w, b) for w, b in zip(work, base))
    worse_by = (wm / bm - 1.0) * (1 if lower else -1) if bm else 0.0
    gain = wins * 10 >= 9 * len(pairs) and abs(wm - bm) > spread(base) and better(wm, bm)
    print(f"{name:<12} {m['unit']:<4} {bm:>10.4g} {spread(base):>9.3g} "
          f"{wm:>10.4g} {spread(work):>9.3g} {worse_by:>+9.1%} "
          f"{wins:>3}/{len(pairs):<2}  {'yes' if gain else 'no'}")
for f in failed:
    print(f"FAILED: {f}")
sys.exit(1 if failed else 0)
EOF
