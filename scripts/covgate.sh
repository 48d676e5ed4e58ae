#!/usr/bin/env bash
# covgate.sh — per-file statement-coverage gate for the durability core.
#
#   covgate.sh <coverprofile> <min-percent> <file>...
#
# Aggregates the profile per file (deduplicating blocks across the test
# binaries that appended to it: a block counts as covered if ANY binary
# covered it) and fails if a named file falls below the threshold. The
# named files are matched by suffix, so callers pass repo-relative paths
# like internal/persist/wal.go.
#
# CI gates the durability core (wal.go, committer.go, backend.go,
# blobserver.go) and the routing core (route.go) — files where an untested branch is a
# durability or availability bug waiting for a crash schedule to find it.
#
# Appended profiles carry one "mode:" header per test binary, so header
# lines are skipped wherever they appear, and a profile with no data
# lines at all fails loudly — an empty profile gating nothing must never
# read as a pass.
set -euo pipefail

if [[ $# -lt 3 ]]; then
    echo "usage: covgate.sh <coverprofile> <min-percent> <file>..." >&2
    exit 2
fi
profile=$1
min=$2
shift 2

if [[ ! -s "$profile" ]]; then
    echo "covgate: $profile: missing or empty coverage profile" >&2
    exit 1
fi
if ! grep -qv '^mode:' "$profile"; then
    echo "covgate: $profile: no coverage data (only mode headers)" >&2
    exit 1
fi

fail=0
for want in "$@"; do
    line=$(awk -v want="$want" '
        /^mode:/ { next }
        {
            key = $1
            stmts[key] = $2
            if ($3 > 0) hit[key] = 1
        }
        END {
            for (k in stmts) {
                split(k, parts, ":")
                fn = parts[1]
                if (substr(fn, length(fn) - length(want) + 1) != want) continue
                total += stmts[k]
                if (k in hit) cov += stmts[k]
            }
            if (total == 0) { print "MISSING"; exit }
            printf "%.1f %d %d\n", 100 * cov / total, cov, total
        }' "$profile")
    if [[ "$line" == "MISSING" || -z "$line" ]]; then
        echo "covgate: $want: no coverage data in $profile" >&2
        fail=1
        continue
    fi
    read -r pct cov total <<<"$line"
    ok="OK"
    if awk -v p="$pct" -v m="$min" 'BEGIN { exit !(p < m) }'; then
        ok="FAIL (< ${min}%)"
        fail=1
    fi
    printf "covgate: %-40s %6s%% (%s/%s statements)  %s\n" "$want" "$pct" "$cov" "$total" "$ok"
done
exit $fail
