#!/usr/bin/env bash
# Build the benchmark from source and run it. Arguments go to the binary:
#
#   run.sh --workload W --seed N --seconds S --trace 0|1   one workload, one phase
#   run.sh [--seed N] [--repeat R] [--quick] [--out PATH]   every workload, both phases
#   run.sh --bless                                          regenerate golden/ (seed 7)
#   run.sh compare A.json B.json                            hold results B against results A
#
# The crate is a package of its own (benchmark/Cargo.toml, empty
# [workspace]) with path dependencies on ../crates/*, so it builds offline
# and leaves the repository's own manifest and lock file alone.
set -euo pipefail

here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
if [ ! -d "$here/../crates" ]; then
    echo "benchmark: $here/../crates is missing — run from a checkout of the repository" >&2
    exit 2
fi

# Build output goes to stderr: the last line of stdout is the result.
cargo build --release --offline --quiet --manifest-path "$here/Cargo.toml" >&2

exec "${CARGO_TARGET_DIR:-$here/target}/release/benchmark" "$@"
