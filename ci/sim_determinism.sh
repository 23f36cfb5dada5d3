#!/usr/bin/env bash
# Simulated-output gate, release build: every `simarms` arm's quick
# rendering must be byte-identical to the committed ci/golden/<arm>.sim,
# so a change that claims to be host-only proves it, and one that means to
# move a simulated value shows the move as a reviewable diff of the
# goldens. (`cargo test -p panthera-bench --test simarms` pins the same
# bytes in a debug build, at 1 and at 4 host threads.)
#
#   ci/sim_determinism.sh
#
# To refresh the goldens after an intended change to simulated output
# (as benchmark/run.sh --bless does for the benchmark's answers):
#
#   ci/sim_determinism.sh --bless
set -euo pipefail

cd "$(dirname "${BASH_SOURCE[0]}")/.."
render() { cargo run --release -p panthera-bench --bin simarms -- --quick --out "$1"; }

if [ "${1:-}" = "--bless" ]; then
    render ci/golden
else
    out="$(mktemp -d)"
    trap 'rm -rf "$out"' EXIT
    render "$out"
    diff -r "$out" ci/golden
    echo "sim-identical to ci/golden: every simarms arm"
fi
