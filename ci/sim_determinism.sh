#!/usr/bin/env bash
# Simulated-output gate, two comparisons per perfsuite arm:
#
# * across host-thread budgets — the host-time-free `.sim` artifact must be
#   byte-identical whether the host gives the executors 1 thread or 4
#   (PANTHERA_HOST_THREADS rations permits only; it may never change a
#   simulated value);
# * across commits — the 1-thread `.sim` must be byte-identical to the
#   committed ci/golden/<arm>.sim, so a change that claims to be host-only
#   proves it, and one that means to move a simulated value shows the move
#   as a reviewable diff of the goldens.
#
#   ci/sim_determinism.sh [OUT_DIR]     (default: a fresh temp directory)
#
# To refresh the goldens after an intended change to simulated output
# (as benchmark/run.sh --bless does for the benchmark's answers):
#
#   ci/sim_determinism.sh --bless
set -euo pipefail

cd "$(dirname "${BASH_SOURCE[0]}")/.."
bless=""
if [ "${1:-}" = "--bless" ]; then
    bless=1
    shift
fi
out="${1:-$(mktemp -d)}"
mkdir -p "$out"

cargo build --release -p panthera-bench --bin perfsuite

arms=("" "--faults 42" "--faults-anywhere 42" --shuffle --regions --service --stream)
for arm in "${arms[@]}"; do
    name="${arm:-default}"
    name="${name#--}"
    name="${name// /_}"
    for threads in 1 4; do
        # $arm is deliberately unquoted: "--faults 42" is two arguments.
        # shellcheck disable=SC2086
        PANTHERA_HOST_THREADS="$threads" PERFSUITE_OUT="$out/${name}_t${threads}.json" \
            ./target/release/perfsuite --quick $arm >"$out/${name}_t${threads}.log" 2>&1 ||
            { cat "$out/${name}_t${threads}.log"; echo "perfsuite --quick $arm failed at $threads host thread(s)" >&2; exit 1; }
    done
    cmp "$out/${name}_t1.json.sim" "$out/${name}_t4.json.sim"
    echo "sim-identical across host-thread budgets: perfsuite --quick $arm"
    if [ -n "$bless" ]; then
        cp "$out/${name}_t1.json.sim" "ci/golden/${name}.sim"
        echo "golden refreshed: ci/golden/${name}.sim"
    else
        cmp "$out/${name}_t1.json.sim" "ci/golden/${name}.sim"
        echo "sim-identical to ci/golden/${name}.sim: perfsuite --quick $arm"
    fi
done
