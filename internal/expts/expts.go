package expts

import (
	"math"
	"sort"

	"repro/internal/convex"
	"repro/internal/dataset"
	"repro/internal/histogram"
	"repro/internal/optimize"
	"repro/internal/sample"
	"repro/internal/universe"
	"repro/internal/workload"
)

// RunConfig is shared by all experiments. Every core.Server the
// experiments build picks its engine from the universe (core.New); the
// bundled universes are all within the dense limit, so they run dense.
type RunConfig struct {
	// Seed pins all randomness.
	Seed int64
	// Quick shrinks sweeps and repetition counts for CI/bench use.
	Quick bool
	// Workers sets the xeval worker count for universe-sized computations
	// (0 = all CPUs). Results are worker-count independent; experiments
	// stay reproducible for a given seed regardless of parallelism.
	Workers int
	// Accountant names the privacy-accounting strategy every core.Server
	// the experiments build composes spends under ("" = "advanced", the
	// paper's DRV10 accounting; see mech.NewAccountant). Unlike Workers
	// this changes derived horizons: "zcdp" sessions sustain more MW
	// updates at the same budget when oracles are Gaussian-based.
	Accountant string
}

// Experiment is one reproducible experiment.
type Experiment struct {
	// ID matches DESIGN.md's experiment index (e.g. "T1.LIN").
	ID string
	// Title is a one-line description.
	Title string
	// PaperClaim states the shape the paper predicts.
	PaperClaim string
	// Run executes the experiment.
	Run func(cfg RunConfig) (*Table, error)
}

// All returns every registered experiment, sorted by ID.
func All() []Experiment {
	es := []Experiment{
		table1Linear(),
		table1Lipschitz(),
		table1GLM(),
		table1StronglyConvex(),
		fig1AccuracyGame(),
		fig2SparseVector(),
		fig3AlgorithmInternals(),
		fig4Composition(),
		ablationEta(),
		ablationUpdateVector(),
		ablationOracle(),
		hr10Comparison(),
		adaptiveGeneralization(),
		offlineComparison(),
	}
	sort.Slice(es, func(i, j int) bool { return es[i].ID < es[j].ID })
	return es
}

// ByID finds an experiment by its ID.
func ByID(id string) (Experiment, bool) {
	for _, e := range All() {
		if e.ID == id {
			return e, true
		}
	}
	return Experiment{}, false
}

// ---------------------------------------------------------------------------
// shared workload builders

// stdGrid is the default labeled universe: 2 features on a 3-level grid in
// the unit ball, 3 labels in [−1, 1]; |X| = 27.
func stdGrid() (*universe.LabeledGrid, error) {
	return universe.NewLabeledGrid(2, 3, 1.0, 3, 1.0)
}

// linearWorkload builds k random halfspace counting queries over u
// (workload.Halfspaces upcast to the Loss interface).
func linearWorkload(src *sample.Source, u universe.Universe, k int) ([]convex.Loss, error) {
	qs, err := workload.Halfspaces(src, u, k)
	if err != nil {
		return nil, err
	}
	return workload.AsLosses(qs), nil
}

// squaredWorkload builds k random-target squared-loss CM queries over a
// labeled grid ("predict attribute ⟨a, x⟩ from the features").
func squaredWorkload(src *sample.Source, g *universe.LabeledGrid, k int) ([]convex.Loss, error) {
	return workload.Regressions(src, g, k)
}

// randomLabeledPoints builds a sampled labeled universe in high ambient
// dimension: `count` unit-sphere feature vectors in R^dim with ±1 labels
// drawn from a sharp logistic model around a hidden direction (sharpness =
// the logit multiplier). The record layout is (features..., label), the
// convention every GLM loss in convex uses.
func randomLabeledPoints(src *sample.Source, dim, count int, sharpness float64) (*universe.Points, error) {
	hidden := src.UnitVec(dim)
	pts := make([][]float64, count)
	for i := range pts {
		f := src.UnitVec(dim)
		p := make([]float64, dim+1)
		copy(p, f)
		var z float64
		for j := range f {
			z += hidden[j] * f[j]
		}
		if src.Bernoulli(1 / (1 + math.Exp(-sharpness*z))) {
			p[dim] = 1
		} else {
			p[dim] = -1
		}
		pts[i] = p
	}
	return universe.NewPoints(pts)
}

// sampleData draws an n-row dataset from a skewed population over u.
func sampleData(src *sample.Source, u universe.Universe, skew float64, n int) (*dataset.Dataset, *histogram.Histogram, error) {
	pop, err := dataset.Skewed(u, skew)
	if err != nil {
		return nil, nil, err
	}
	return dataset.SampleFrom(src, pop, n), pop, nil
}

// maxExcess measures the worst excess risk of per-query answers on d.
func maxExcess(losses []convex.Loss, answers [][]float64, d *histogram.Histogram) (float64, error) {
	var worst float64
	for i, l := range losses {
		if answers[i] == nil {
			continue
		}
		e, err := optimize.Excess(l, answers[i], d, optimize.Options{MaxIters: 800})
		if err != nil {
			return 0, err
		}
		if e > worst {
			worst = e
		}
	}
	return worst, nil
}
