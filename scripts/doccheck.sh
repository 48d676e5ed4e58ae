#!/usr/bin/env bash
# doccheck.sh — the repo's documentation gate, run in CI.
#
#   1. gofmt -l         : no unformatted files
#   2. go vet ./...     : no vet diagnostics
#   3. doccheck         : every internal package has a package doc comment,
#                         and every exported symbol in internal/core,
#                         internal/obs, internal/persist, internal/route,
#                         internal/service,
#                         internal/universe, internal/vecmath,
#                         internal/xeval, internal/fault, and
#                         internal/fault/drill has a doc comment (the
#                         serving + persistence + observability surface is
#                         the repo's operational API, the universe/kernel/
#                         engine substrate is what every new sweep builds
#                         on, and the fault seam is load-bearing for every
#                         durability claim, so all are held to the
#                         strictest standard; internal/route joins them
#                         as the fleet's availability seam, and
#                         internal/core as the mechanism itself)
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
        internal/core/) ;; # strict-checked below
        internal/obs/|internal/persist/|internal/route/|internal/service/) ;; # strict-checked below
        internal/universe/|internal/vecmath/|internal/xeval/) ;; # strict-checked below
        internal/fault/) ;; # strict-checked below (with its nested drill package)
        *) pkgdoc_args+=(-pkgdoc "${d%/}") ;;
    esac
done
go run ./scripts/doccheck "${pkgdoc_args[@]}" \
    internal/core \
    internal/obs internal/persist internal/route internal/service \
    internal/universe internal/vecmath internal/xeval \
    internal/fault internal/fault/drill

echo "doccheck: OK"
