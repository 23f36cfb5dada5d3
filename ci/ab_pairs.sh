#!/usr/bin/env bash
# Alternating parent/change pairs of benchmark workloads — the
# measurement choosing-metrics §8 asks of a change that claims a gain.
#
#   ci/ab_pairs.sh <parent-rev> <workload[,workload...]> [pairs=10] [seed=7] [build-dir]
#
# The parent is `git archive`d from <parent-rev> into the build directory
# (no checkout, worktree or ref is touched); the change is this working
# tree as it stands. Each side's `benchmark` crate is built once, into a
# target directory of its own inside the build directory — a temporary
# one, removed on exit, unless [build-dir] names one to keep and reuse
# across invocations — and serves every listed workload. Every pair runs
#
#   benchmark --workload W --seed S --seconds 6 --trace 0
#
# once per side, the parent first in odd pairs and the change first in
# even ones. Printed per workload and end-to-end metric of BENCHMARK.json:
# each side's median and quartiles, how many pairs each side won or tied,
# and a verdict:
#
#   gain        the change wins at least 9 of 10 pairs, and the medians
#               differ by more than the parent's interquartile range;
#   regressed   the change's median is worse than the parent's by more
#               than the metric's bound;
#   unresolved  the parent's interquartile range, relative to its median,
#               is wider than the bound, and not every run of the change
#               reads better than every run of the parent;
#   held        none of these: no gain shown, and no move past the bound.
#
# Exits 1 if any run is incorrect or reports a failed operation, or if any
# `sim_*` value differs between any two runs of a workload — a host-only
# change must not move one. It reads benchmark/ and writes nothing under
# it.
set -euo pipefail

if [ $# -lt 2 ] || [ $# -gt 5 ]; then
    sed -n '2,6p' "${BASH_SOURCE[0]}" >&2
    exit 2
fi
rev="$1"
IFS=, read -r -a workloads <<<"$2"
pairs="${3:-10}"
seed="${4:-7}"

repo="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
results="$(mktemp)"
if [ $# -eq 5 ]; then
    mkdir -p "$5"
    work="$(cd "$5" && pwd)"
    trap 'rm -f "$results"' EXIT
else
    work="$(mktemp -d)"
    trap 'rm -rf "$results" "$work"' EXIT
fi
case "$work/" in
"$repo"/*)
    echo "ab_pairs: the build directory must lie outside the repository" >&2
    exit 2
    ;;
esac

commit="$(git -C "$repo" rev-parse --verify "$rev^{commit}")"
parent="$work/parent-$commit"
if [ ! -d "$parent" ]; then
    mkdir -p "$parent.partial"
    git -C "$repo" archive "$commit" | tar -x -C "$parent.partial"
    mv "$parent.partial" "$parent"
fi

build() { # <checkout> <target dir>
    CARGO_TARGET_DIR="$2" cargo build --release --offline --quiet \
        --manifest-path "$1/benchmark/Cargo.toml" >&2
}
build "$parent" "$work/target-parent"
build "$repo" "$work/target-change"

run() { # <side> <workload>
    "$work/target-$1/release/benchmark" \
        --workload "$2" --seed "$seed" --seconds 6 --trace 0 | tail -n 1
}

for workload in "${workloads[@]}"; do
    for i in $(seq 1 "$pairs"); do
        if [ $((i % 2)) -eq 1 ]; then order="parent change"; else order="change parent"; fi
        for side in $order; do
            printf '%s\t%s\t%s\t%s\n' "$workload" "$i" "$side" "$(run "$side" "$workload")" >>"$results"
            echo "$workload pair $i/$pairs: $side done" >&2
        done
    done
done

python3 - "$repo/BENCHMARK.json" "$results" "$seed" "$commit" <<'EOF'
import json
import statistics
import sys

spec_path, results_path, seed, commit = sys.argv[1:]
spec = json.load(open(spec_path))
runs = {}  # workload -> pair -> side -> result
for line in open(results_path):
    workload, pair, side, result = line.rstrip("\n").split("\t")
    runs.setdefault(workload, {}).setdefault(int(pair), {})[side] = json.loads(result)


def quartiles(v):
    if len(v) < 2:
        return v[0], v[0], v[0]
    q1, _, q3 = statistics.quantiles(v, n=4)
    return q1, statistics.median(v), q3


def verdict(a, b, lower, bound):
    """gain / regressed / unresolved / held for parent runs `a` and change
    runs `b`, paired by index."""
    (a1, am, a3), (_, bm, _) = quartiles(a), quartiles(b)
    wins = sum((y < x) if lower else (y > x) for x, y in zip(a, b))
    gain = bm < am if lower else bm > am
    if gain and 10 * wins >= 9 * len(a) and abs(bm - am) > a3 - a1:
        return "gain"
    worse_by = ((bm - am) if lower else (am - bm)) / am if am else 0.0
    if worse_by > bound:
        return "regressed"
    all_better = max(b) < min(a) if lower else min(b) > max(a)
    if am and (a3 - a1) / abs(am) > bound and not all_better:
        return "unresolved"
    return "held"


bad = 0
for workload, wruns in runs.items():
    for pair, sides in sorted(wruns.items()):
        for side, r in sides.items():
            if not r["correct"] or r["failed"]:
                print(f"{workload} pair {pair} {side}: correct={r['correct']} failed={r['failed']}")
                bad += 1

    def values(side, name):
        return [wruns[p][side]["metrics"][name]["value"] for p in sorted(wruns)]

    print(f"{workload}, seed {seed}, {len(wruns)} alternating pairs, parent {commit[:12]}")
    print(f"{'metric':<26}{'parent q1 / median / q3':>34}{'change q1 / median / q3':>34}"
          f"{'median':>9}  wins / ties / losses  verdict")
    for m in spec["end_to_end"]:
        name, lower = m["name"], m["better"] == "lower"
        a, b = values("parent", name), values("change", name)
        if name.startswith("sim_") and len(set(a + b)) != 1:
            print(f"{name}: differs across runs: parent {sorted(set(a))}, change {sorted(set(b))}")
            bad += 1
        wins = sum((y < x) if lower else (y > x) for x, y in zip(a, b))
        ties = sum(x == y for x, y in zip(a, b))
        (a1, am, a3), (b1, bm, b3) = quartiles(a), quartiles(b)
        delta = f"{(bm - am) / am:+.1%}" if am else "n/a"
        print(f"{name:<26}{f'{a1:.4g} / {am:.4g} / {a3:.4g}':>34}{f'{b1:.4g} / {bm:.4g} / {b3:.4g}':>34}"
              f"{delta:>9}  {f'{wins} / {ties} / {len(a) - wins - ties}':<20}  "
              f"{verdict(a, b, lower, m['bound'])}")
        print(f"    parent runs: {' '.join(f'{x:.4g}' for x in a)}")
        print(f"    change runs: {' '.join(f'{x:.4g}' for x in b)}")
    print()
sys.exit(1 if bad else 0)
EOF
