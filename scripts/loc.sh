#!/bin/sh
# Non-test lines of Rust: for every src/**/*.rs not named tests.rs under
# the given paths (default: crates), the lines before the first
# `#[cfg(test)]`, per file and in total. A `#[cfg(test)]` directly
# followed by `mod name;` only declares a test module kept in its own
# file: those two lines are skipped and counting goes on. The number
# simplicity PRs are held to, so count it the same way every time.
set -eu
[ $# -gt 0 ] || set -- crates
find "$@" -type f -name '*.rs' -path '*/src/*' ! -name tests.rs | LC_ALL=C sort |
    xargs awk '
        FNR == 1 { if (file != "") printf "%7d %s\n", n, file; file = FILENAME; n = 0; test = 0; held = 0 }
        held { held = 0; if ($0 ~ /^mod [A-Za-z0-9_]+;/) next; test = 1 }
        /^#\[cfg\(test\)\]/ { held = 1; next }
        !test { n++; total++ }
        END { if (file != "") printf "%7d %s\n", n, file; printf "%7d total\n", total }'
