#!/usr/bin/env bash
# Simulated-output gate, release build: every `simarms` arm's quick
# rendering must be byte-identical to the committed ci/golden/, and the
# full-size text of the paper's experiments — the source of every "ours"
# number in EXPERIMENTS.md — to ci/paper/<id>.txt. A change that claims to
# be host-only proves it here, and one that means to move a simulated
# value shows the move as a reviewable diff of those files.
# (`cargo test -p panthera-bench --test simarms` pins the ci/golden/ bytes
# in a debug build, the extension arms at 1 and at 4 host threads.)
#
#   ci/sim_determinism.sh
#
# To refresh both directories after an intended change to simulated output
# (as benchmark/run.sh --bless does for the benchmark's answers):
#
#   ci/sim_determinism.sh --bless
set -euo pipefail

cd "$(dirname "${BASH_SOURCE[0]}")/.."
simarms() { cargo run --release -p panthera-bench --bin simarms -- "$@"; }
# ci/paper/ holds one text per paper arm (a unit test of
# panthera_bench::simarms keeps the two in step), so it names them.
render() {
    simarms --quick --out "$1/golden"
    simarms --out "$1/paper" $(basename -s .txt ci/paper/*.txt)
}

if [ "${1:-}" = "--bless" ]; then
    render ci
else
    out="$(mktemp -d)"
    trap 'rm -rf "$out"' EXIT
    render "$out"
    diff -r "$out/golden" ci/golden
    diff -r "$out/paper" ci/paper
    echo "sim-identical to ci/golden and ci/paper: every simarms arm"
fi
