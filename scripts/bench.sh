#!/usr/bin/env sh
# bench.sh — run the repo's benchmarks and archive the results as JSON so
# the performance trajectory is tracked PR over PR.
#
# Usage:
#   scripts/bench.sh                  # full sweep, writes BENCH_<date>.json
#   BENCHTIME=10x scripts/bench.sh    # override iteration count
#   BENCH=GradOn scripts/bench.sh     # restrict to matching benchmarks
#
# The output file is `go test -json` events (one JSON object per line);
# benchmark result lines live in the "Output" fields of events whose
# Action is "output". Compare runs with e.g.
#   jq -r 'select(.Action=="output") | .Output' BENCH_2026-07-27.json | grep Benchmark
#
# The sweep covers the xeval/mw/convex kernels AND the privacy-accounting
# micro-benchmarks (BenchmarkAccountant* in internal/mech): per-spend
# overhead and Total() latency per accountant, which sit on the serving hot
# path (one Spend per ⊤ answer, one Total per status read). Restrict with
#   BENCH=Accountant scripts/bench.sh
#
# Micro mode — the CI perf-regression gate's protocol:
#   scripts/bench.sh micro              # writes BENCH_micro_baseline.json
#   OUT=bench_micro_current.json scripts/bench.sh micro
# runs only the mech + convex + vecmath + persist + optimize
# micro-benchmarks at a time-based -benchtime (default 0.2s), long enough
# per benchmark that ns/op is stable; compare runs with
# `go run ./scripts/benchdiff`. The optimize solver benchmarks
# (BenchmarkMinimizeMissLarge and BenchmarkMinimizeMissSmall: one public
# argmin solve shaped like the miss_large and miss_small workloads',
# with allocs/op) are reported but not gated: optimize is not in
# benchdiff's default -gate list. Regenerate (and commit) the baseline
# when the protocol or the reference hardware changes.
#
# The first line of every output file is a meta event recording goos,
# goarch, the CPU model, and the vecmath sweep sizes (the |X| grid the
# block-kernel benchmarks cover), so archived results identify the machine
# and universe scale they were measured on. benchdiff ignores it (its
# Action is "meta", not "output").
set -eu

cd "$(dirname "$0")/.."

MODE="${1:-full}"
BENCH="${BENCH:-.}"
if [ "$MODE" = "micro" ]; then
	BENCHTIME="${BENCHTIME:-0.2s}"
	OUT="${OUT:-BENCH_micro_baseline.json}"
	PKGS="./internal/mech ./internal/convex ./internal/vecmath ./internal/persist ./internal/optimize"
else
	BENCHTIME="${BENCHTIME:-1x}"
	OUT="${OUT:-BENCH_$(date +%F).json}"
	PKGS="./..."
fi

CPU="$(awk -F': ' '/model name/{print $2; exit}' /proc/cpuinfo 2>/dev/null || true)"
[ -n "$CPU" ] || CPU="$(uname -m)"

echo "bench: mode=$MODE pattern=$BENCH benchtime=$BENCHTIME -> $OUT" >&2
printf '{"Action":"meta","Mode":"%s","Benchtime":"%s","GOOS":"%s","GOARCH":"%s","CPU":"%s","UniverseSizes":[1024,65536,1048576]}\n' \
	"$MODE" "$BENCHTIME" "$(go env GOOS)" "$(go env GOARCH)" "$CPU" > "$OUT"
# shellcheck disable=SC2086 # PKGS is a deliberate word list
go test -run '^$' -bench "$BENCH" -benchtime "$BENCHTIME" -json $PKGS >> "$OUT"

# Human-readable summary to stderr.
grep -o '"Output":"Benchmark[^"]*"' "$OUT" \
	| sed -e 's/^"Output":"//' -e 's/"$//' -e 's/\\t/\t/g' -e 's/\\n$//' >&2 || true
echo "bench: wrote $OUT" >&2
