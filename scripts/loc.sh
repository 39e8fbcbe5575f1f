#!/usr/bin/env bash
# Prints the workspace's Rust line count per crate and in total: lines of
# `*.rs` under crates/, src/, tests/ and examples/ that are neither blank
# nor `//` comments (doc comments included). The facade crate is its
# root `src/`, `tests/` and `examples/`.
#
#   scripts/loc.sh        # from anywhere inside the repository
set -euo pipefail
cd "$(dirname "$0")/.."

count() {
    find "$@" -name '*.rs' -type f -print0 2>/dev/null \
        | xargs -0 -r cat \
        | awk '{ sub(/^[ \t]+/, "") } $0 != "" && substr($0, 1, 2) != "//" { n++ } END { print n + 0 }'
}

total=0
for dir in crates/*/; do
    n=$(count "$dir")
    printf '%-26s %7d\n' "$(basename "$dir")" "$n"
    total=$((total + n))
done
n=$(count src tests examples)
printf '%-26s %7d\n' "fcds (src tests examples)" "$n"
total=$((total + n))
printf '%-26s %7d\n' "total" "$total"
