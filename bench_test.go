// Package repro's top-level benchmarks regenerate every table and figure of
// the paper (`go run ./cmd/pmwcm list` prints the experiment index, and
// README's "Batch experiments: `pmwcm run`" shows how to run one with its
// paper claim beside the measured table). Each benchmark runs its experiment
// end-to-end per iteration and reports, alongside ns/op, the headline
// metric of the experiment as a custom unit so `go test -bench=.` output
// doubles as a results table.
//
// Run a single experiment's bench with e.g.
//
//	go test -bench=BenchmarkTable1Linear -benchtime=1x
package repro

import (
	"strconv"
	"testing"

	"repro/internal/expts"
)

// runExperiment executes the experiment once per bench iteration and
// reports the value found at (row, col) of the produced table as metric.
func runExperiment(b *testing.B, id string, metricCol string, metricName string) {
	b.Helper()
	e, ok := expts.ByID(id)
	if !ok {
		b.Fatalf("unknown experiment %q", id)
	}
	var last float64
	for i := 0; i < b.N; i++ {
		tbl, err := e.Run(expts.RunConfig{Seed: int64(1 + i), Quick: true})
		if err != nil {
			b.Fatalf("%s: %v", id, err)
		}
		if v, ok := lastValue(tbl, metricCol); ok {
			last = v
		}
	}
	if metricName != "" {
		b.ReportMetric(last, metricName)
	}
}

// lastValue extracts the named column's value from the last row.
func lastValue(t *expts.Table, col string) (float64, bool) {
	idx := -1
	for i, c := range t.Columns {
		if c == col {
			idx = i
			break
		}
	}
	if idx < 0 || len(t.Rows) == 0 {
		return 0, false
	}
	v, err := strconv.ParseFloat(t.Rows[len(t.Rows)-1][idx], 64)
	if err != nil {
		return 0, false
	}
	return v, true
}

// BenchmarkTable1Linear regenerates Table 1 row 1 (linear queries): PMW
// stays pinned near α while per-query Laplace composition degrades ~√k.
func BenchmarkTable1Linear(b *testing.B) {
	runExperiment(b, "T1.LIN", "pmw", "pmw-max-excess")
}

// BenchmarkTable1Lipschitz regenerates Table 1 row 2 (Lipschitz, d-bounded
// CM queries): PMW with the NoisyGD oracle vs composition across n and k.
func BenchmarkTable1Lipschitz(b *testing.B) {
	runExperiment(b, "T1.LIP", "pmw", "pmw-max-excess")
}

// BenchmarkTable1GLM regenerates Table 1 row 3 (unconstrained GLMs): the
// GLM-reduction oracle is ~flat in dimension, the generic oracle grows.
func BenchmarkTable1GLM(b *testing.B) {
	runExperiment(b, "T1.GLM", "glmreduce", "glm-excess")
}

// BenchmarkTable1StronglyConvex regenerates Table 1 row 4 (σ-strongly
// convex losses): error decreases as σ grows.
func BenchmarkTable1StronglyConvex(b *testing.B) {
	runExperiment(b, "T1.SC", "pmw+outputperturb", "pmw-max-excess")
}

// BenchmarkFig1AccuracyGame regenerates Figure 1 / Definition 2.4: the
// empirical success rate of the accuracy game vs n.
func BenchmarkFig1AccuracyGame(b *testing.B) {
	runExperiment(b, "F1.ACC", "success_rate", "success-rate")
}

// BenchmarkFig2SparseVector regenerates Figure 2 / Theorem 3.1: sparse
// vector decision accuracy vs n.
func BenchmarkFig2SparseVector(b *testing.B) {
	runExperiment(b, "F2.SV", "top_rate", "top-rate")
}

// BenchmarkFig3Internals regenerates Figure 3's internal invariants:
// per-update progress, potential decay, update budget.
func BenchmarkFig3Internals(b *testing.B) {
	runExperiment(b, "F3.ALG", "progress", "last-progress")
}

// BenchmarkFig4Composition regenerates Figure 4 / Theorem 3.10: basic vs
// strong composition totals plus an empirical adjacent-dataset check.
func BenchmarkFig4Composition(b *testing.B) {
	runExperiment(b, "F4.COMP", "advanced_eps", "advanced-eps")
}

// BenchmarkAblationEta sweeps the MW learning rate (ablation A1).
func BenchmarkAblationEta(b *testing.B) {
	runExperiment(b, "A1.ETA", "max_excess", "max-excess")
}

// BenchmarkAblationUpdateVector compares the dual-certificate update with a
// naive loss-gap update (ablation A2).
func BenchmarkAblationUpdateVector(b *testing.B) {
	runExperiment(b, "A2.DUAL", "worst_excess", "final-worst-excess")
}

// BenchmarkAblationOracle sweeps the oracle quality (ablation A3).
func BenchmarkAblationOracle(b *testing.B) {
	runExperiment(b, "A3.ORACLE", "max_excess", "max-excess")
}

// BenchmarkHR10Lineage checks the CM generalization against HR10's linear
// PMW, MWEM, and composition on a pure linear-query workload (X1.HR10).
func BenchmarkHR10Lineage(b *testing.B) {
	runExperiment(b, "X1.HR10", "worst_answer_err", "comp-worst-err")
}

// BenchmarkAdaptiveGeneralization reproduces the §1.3 adaptive-data-
// analysis connection: private answers curb the analyst's overfitting
// (X2.ADAPT).
func BenchmarkAdaptiveGeneralization(b *testing.B) {
	runExperiment(b, "X2.ADAPT", "gap_private", "private-gap")
}

// BenchmarkOfflineVariant compares the online Figure-3 algorithm with the
// offline MWEM-style batch variant (X3.OFFLINE).
func BenchmarkOfflineVariant(b *testing.B) {
	runExperiment(b, "X3.OFFLINE", "max_excess", "offline-max-excess")
}
