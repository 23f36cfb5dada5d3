#!/usr/bin/env bash
# Non-test lines of code: per crate and in total, the lines of every
# crates/<crate>/src/**/*.rs file that come before the file's first
# column-0 `#[cfg(test)]` (a file without one counts whole). Comments and
# blank lines count; integration tests under crates/*/tests do not. Writes
# nothing; compare two commits by running it in each checkout.
#
#   ci/loc.sh
set -euo pipefail

cd "$(dirname "${BASH_SOURCE[0]}")/.."
find crates -path '*/src/*' -name '*.rs' -print0 | xargs -0 awk '
    FNR == 1 { split(FILENAME, path, "/"); crate = path[2]; counting = 1 }
    /^#\[cfg\(test\)\]/ { counting = 0 }
    counting { lines[crate]++ }
    END { for (c in lines) printf "%-12s %6d\n", c, lines[c] }
' | sort | awk '{ print; total += $2 } END { printf "%-12s %6d\n", "total", total }'
