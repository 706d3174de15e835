#!/bin/sh
# Non-test lines of Rust: for every src/**/*.rs not named tests.rs under
# the given paths (default: crates), the lines before the first
# `#[cfg(test)]`, per file and in total. The number simplicity PRs are
# held to, so count it the same way every time.
set -eu
[ $# -gt 0 ] || set -- crates
find "$@" -type f -name '*.rs' -path '*/src/*' ! -name tests.rs | LC_ALL=C sort |
    xargs awk '
        FNR == 1 { if (file != "") printf "%7d %s\n", n, file; file = FILENAME; n = 0; test = 0 }
        /^#\[cfg\(test\)\]/ { test = 1 }
        !test { n++; total++ }
        END { if (file != "") printf "%7d %s\n", n, file; printf "%7d total\n", total }'
