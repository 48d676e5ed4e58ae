#!/usr/bin/env bash
# loc.sh — Go line counts per package, non-test and test files separately,
# plus the repo-wide totals. Lines are raw `wc -l` counts (blank and
# comment lines included). bench/ is excluded: it is the benchmark
# harness, not the program. So is every testdata/ directory: the go tool
# never builds what is under one (fixture modules, sample inputs).
#
#   scripts/loc.sh
set -euo pipefail
cd "$(dirname "$0")/.."

find . -name '*.go' -not -path './bench/*' -not -path './.git/*' -not -path '*/testdata/*' -print0 |
    xargs -0 wc -l |
    awk '
        $2 == "total" { next }
        {
            dir = $2
            sub(/\/[^\/]*$/, "", dir)
            sub(/^\.\//, "", dir)
            if ($2 ~ /_test\.go$/) { test[dir] += $1; tt += $1 } else { src[dir] += $1; ts += $1 }
            seen[dir] = 1
        }
        END {
            for (d in seen) printf "%-28s %8d %8d\n", d, src[d], test[d] | "sort"
            close("sort")
            printf "%-28s %8d %8d\n", "total", ts, tt
        }
    ' |
    { printf "%-28s %8s %8s\n" package non-test test; cat; }
