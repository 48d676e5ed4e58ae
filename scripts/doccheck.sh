#!/usr/bin/env bash
# doccheck.sh — the repo's documentation gate, run in CI.
#
#   1. gofmt -l         : no unformatted files
#   2. go vet ./...     : no vet diagnostics
#   3. doccheck         : every internal package has a package doc comment,
#                         and every exported symbol in the strict list
#                         below has a doc comment:
#                           - internal/obs, internal/persist, internal/route,
#                             internal/service: the serving, persistence,
#                             fleet and observability surface, the repo's
#                             operational API;
#                           - internal/core, internal/convex, internal/erm,
#                             internal/optimize, internal/mw, internal/mech,
#                             internal/sparse, internal/transcript: the
#                             mechanism stack — Figure 3 itself, the CM
#                             queries, the single-query oracles, the solvers,
#                             the MW state, the privacy accounting and the
#                             sparse-vector test with its transcript;
#                           - internal/universe, internal/vecmath,
#                             internal/xeval: the substrate every new sweep
#                             builds on;
#                           - internal/fault and internal/fault/drill: the
#                             fault seam every durability claim rests on.
#   4. deadcode         : no exported declaration under internal/ that only
#                         tests use, beyond the allowlist in
#                         scripts/deadcode/main.go (each entry with its
#                         reason).
set -euo pipefail
cd "$(dirname "$0")/.."

unformatted=$(gofmt -l .)
if [[ -n "$unformatted" ]]; then
    echo "gofmt: unformatted files:" >&2
    echo "$unformatted" >&2
    exit 1
fi

go vet ./...

pkgdoc_args=()
for d in internal/*/; do
    case "$d" in
        internal/core/|internal/convex/|internal/erm/|internal/optimize/) ;; # strict-checked below
        internal/mw/|internal/mech/|internal/sparse/|internal/transcript/) ;; # strict-checked below
        internal/obs/|internal/persist/|internal/route/|internal/service/) ;; # strict-checked below
        internal/universe/|internal/vecmath/|internal/xeval/) ;; # strict-checked below
        internal/fault/) ;; # strict-checked below (with its nested drill package)
        *) pkgdoc_args+=(-pkgdoc "${d%/}") ;;
    esac
done
go run ./scripts/doccheck "${pkgdoc_args[@]}" \
    internal/core internal/convex internal/erm internal/optimize \
    internal/mw internal/mech internal/sparse internal/transcript \
    internal/obs internal/persist internal/route internal/service \
    internal/universe internal/vecmath internal/xeval \
    internal/fault internal/fault/drill

go run ./scripts/deadcode

echo "doccheck: OK"
