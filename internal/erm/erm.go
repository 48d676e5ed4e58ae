// Package erm implements differentially private oracles for a *single*
// convex-minimization query — the black box A′ that paper Figure 3 consumes
// and §4.2 instantiates:
//
//   - NoisyGD        — noisy projected gradient descent, the generic
//     Lipschitz/bounded oracle in the style of Bassily–Smith–Thakurta
//     (paper Theorem 4.1);
//   - OutputPerturbation — exact minimization plus calibrated output noise,
//     valid for σ-strongly convex losses in the style of
//     Chaudhuri–Monteleoni–Sarwate (paper Theorem 4.5 regime);
//   - NetExpMech     — exponential mechanism over a public candidate net,
//     a generic fallback for any bounded loss;
//   - GLMReduction   — random-projection reduction for unconstrained
//     generalized linear models in the spirit of Jain–Thakurta (paper
//     Theorem 4.3): optimization happens in a low-dimensional projected
//     space, so error does not grow with the ambient dimension d.
//
// The package's tests add NonPrivate, the exact minimizer with no noise,
// as their accuracy ceiling; it is not DP, so nothing outside the tests
// can serve it.
//
// Every oracle satisfies the same contract: Answer(src, ℓ, D, ε, δ) is
// (ε, δ)-DP with respect to replacing one row of D, and returns a point of
// the loss's domain. The paper's algorithm only relies on this contract
// (assumptions (2) in §3.3), so oracles are interchangeable; the
// experiments exploit that to reproduce the separate rows of Table 1.
package erm

import (
	"fmt"
	"math"

	"repro/internal/convex"
	"repro/internal/dataset"
	"repro/internal/mech"
	"repro/internal/optimize"
	"repro/internal/sample"
	"repro/internal/universe"
	"repro/internal/vecmath"
	"repro/internal/xeval"
)

// ensureDenseData guards the oracles whose Answer sweeps the full universe
// histogram: past the dense-enumeration limit they cannot run, and the
// caller should pair the factored engine with a histogram-free oracle
// (LaplaceLinear answers from rows alone).
func ensureDenseData(name string, data *dataset.Dataset) error {
	if err := universe.EnsureDense(data.U); err != nil {
		return fmt.Errorf("erm: oracle %q: %w", name, err)
	}
	return nil
}

// solverIters bounds OutputPerturbation's internal exact solve (and the
// tests' NonPrivate ceiling's).
const solverIters = 800

// Oracle answers one CM query under (ε, δ)-differential privacy.
type Oracle interface {
	// Name identifies the oracle in reports.
	Name() string
	// Answer returns a private approximate minimizer of l on data.
	Answer(src *sample.Source, l convex.Loss, data *dataset.Dataset, eps, delta float64) ([]float64, error)
}

// CostReporter is implemented by oracles that can declare the privacy cost
// of one Answer invocation in the tightest calculus they certify —
// Gaussian-noise oracles report their zCDP parameter ρ, Laplace- and
// exponential-mechanism-based ones their pure-DP cost — so a
// mech.Accountant can compose spends more tightly than the generic (ε, δ)
// declaration allows. AnswerCost must be deterministic and data-independent
// (it is consulted at planning time, before any data access); for Gaussian
// oracles this holds because ρ = Δ²/(2σ²) cancels the sensitivity: σ is
// calibrated proportionally to Δ, so ρ depends only on (ε, δ) and the
// oracle's internal schedule.
type CostReporter interface {
	AnswerCost(eps, delta float64) mech.Cost
}

// CostOf returns o's declared cost of one Answer(…, eps, delta) call,
// falling back to the generic (ε, δ)-DP declaration for oracles that do
// not report.
func CostOf(o Oracle, eps, delta float64) mech.Cost {
	if r, ok := o.(CostReporter); ok {
		return r.AnswerCost(eps, delta)
	}
	return mech.ApproxCost(eps, delta)
}

// noisyGDCost is the zCDP cost of iters Gaussian-noise gradient steps under
// the (ε, δ) budget-splitting schedule: each step is calibrated at
// (ε₀, δ₀) = SplitBudget(ε, δ, iters) and costs ρ = ε₀²/(4·ln(1.25/δ₀)).
func noisyGDCost(iters int, eps, delta float64) mech.Cost {
	eps0, delta0, err := mech.SplitBudget(eps, delta, iters)
	if err != nil {
		return mech.ApproxCost(eps, delta)
	}
	rho := float64(iters) * eps0 * eps0 / (4 * math.Log(1.25/delta0))
	return mech.Cost{Eps: eps, Delta: delta, Rho: rho}
}

// gradSensitivity returns the L2 sensitivity of the average gradient under
// row replacement: ‖(1/n)(∇ℓ(θ;x) − ∇ℓ(θ;x′))‖ ≤ 2L/n.
func gradSensitivity(l convex.Loss, n int) float64 {
	return 2 * l.Lipschitz() / float64(n)
}

// NoisyGD is noisy projected full-gradient descent: Iters steps of
//
//	θ_{t+1} = Proj_Θ(θ_t − γ_t·(∇ℓ(θ_t; D) + N(0, σ²·I)))
//
// with σ calibrated so the whole run is (ε, δ)-DP via the paper's
// budget-splitting schedule (Theorem 3.10). It returns the projected
// average iterate. The full gradient is computed from the dataset's
// histogram, which is exact and costs O(|X|·d) per step.
type NoisyGD struct {
	// Iters is the number of gradient steps (default 64).
	Iters int
	// Engine evaluates population gradients chunk-parallel over the
	// universe; nil runs serially. Purely a speed knob: xeval's reductions
	// are worker-count deterministic, so the released answer (and hence
	// the privacy analysis) is identical either way.
	Engine *xeval.Engine
}

// Name implements Oracle.
func (o NoisyGD) Name() string { return "noisygd" }

// AnswerCost implements CostReporter: Iters Gaussian releases.
func (o NoisyGD) AnswerCost(eps, delta float64) mech.Cost {
	iters := o.Iters
	if iters <= 0 {
		iters = 64
	}
	return noisyGDCost(iters, eps, delta)
}

// Answer implements Oracle.
func (o NoisyGD) Answer(src *sample.Source, l convex.Loss, data *dataset.Dataset, eps, delta float64) ([]float64, error) {
	iters := o.Iters
	if iters <= 0 {
		iters = 64
	}
	if err := (mech.Params{Eps: eps, Delta: delta}).Validate(); err != nil {
		return nil, err
	}
	if delta == 0 {
		return nil, fmt.Errorf("erm: NoisyGD requires delta > 0")
	}
	eps0, delta0, err := mech.SplitBudget(eps, delta, iters)
	if err != nil {
		return nil, err
	}
	sens := gradSensitivity(l, data.N())
	sigma, err := mech.GaussianSigma(sens, eps0, delta0)
	if err != nil {
		return nil, err
	}

	if err := ensureDenseData(o.Name(), data); err != nil {
		return nil, err
	}
	dom := l.Domain()
	d := dom.Dim()
	sw := convex.NewSweep(o.Engine, l, data.Histogram())
	theta := dom.Center()
	avg := vecmath.Copy(theta)
	grad := make([]float64, d)
	stepBuf := make([]float64, d)
	lip := l.Lipschitz()
	sc := l.StrongConvexity()
	diam := dom.Diameter()
	for t := 1; t <= iters; t++ {
		sw.Grad(grad, theta)
		for i := range grad {
			grad[i] += src.Gaussian(0, sigma)
		}
		var step float64
		if sc > 0 {
			step = 1 / (sc * float64(t))
		} else {
			step = diam / (lip * math.Sqrt(float64(t)))
		}
		copy(stepBuf, theta)
		theta = dom.Project(vecmath.AddScaled(stepBuf, -step, grad))
		for i := range avg {
			avg[i] += (theta[i] - avg[i]) / float64(t+1)
		}
	}
	return dom.Project(avg), nil
}

// OutputPerturbation computes the exact empirical minimizer and adds
// Gaussian noise scaled to the minimizer's stability. For a σ-strongly
// convex, L-Lipschitz loss, replacing one of n rows moves the minimizer by
// at most 2L/(σn) in L2 (the classical ERM stability bound), so releasing
// minimizer + N(0, σ²_noise·I) with σ_noise from the Gaussian mechanism at
// that sensitivity is (ε, δ)-DP.
type OutputPerturbation struct {
	// Engine parallelizes the internal solve (see NoisyGD.Engine).
	Engine *xeval.Engine
}

// Name implements Oracle.
func (o OutputPerturbation) Name() string { return "outputperturb" }

// AnswerCost implements CostReporter: one Gaussian release at the full
// (ε, δ), whose zCDP cost ρ = Δ²/(2σ²) = ε²/(4·ln(1.25/δ)) is
// sensitivity-independent.
func (o OutputPerturbation) AnswerCost(eps, delta float64) mech.Cost {
	if eps <= 0 || delta <= 0 || delta >= 1 {
		return mech.ApproxCost(eps, delta)
	}
	return mech.Cost{Eps: eps, Delta: delta, Rho: eps * eps / (4 * math.Log(1.25/delta))}
}

// Answer implements Oracle. It fails when the loss is not strongly convex.
func (o OutputPerturbation) Answer(src *sample.Source, l convex.Loss, data *dataset.Dataset, eps, delta float64) ([]float64, error) {
	sc := l.StrongConvexity()
	if sc <= 0 {
		return nil, fmt.Errorf("erm: OutputPerturbation requires a strongly convex loss, got σ = %v", sc)
	}
	if delta == 0 {
		return nil, fmt.Errorf("erm: OutputPerturbation requires delta > 0")
	}
	if err := ensureDenseData(o.Name(), data); err != nil {
		return nil, err
	}
	res, err := optimize.Minimize(l, data.Histogram(), optimize.Options{MaxIters: solverIters, Engine: o.Engine})
	if err != nil {
		return nil, err
	}
	sens := 2 * l.Lipschitz() / (sc * float64(data.N()))
	sigma, err := mech.GaussianSigma(sens, eps, delta)
	if err != nil {
		return nil, err
	}
	dom := l.Domain()
	out := vecmath.Copy(res.Theta)
	for i := range out {
		out[i] += src.Gaussian(0, sigma)
	}
	return dom.Project(out), nil
}

// NetExpMech runs the exponential mechanism over a public net of candidate
// parameters: the domain center plus Candidates−1 random domain points
// (drawn from src before any data access, hence data-independent). Scores
// are the negated empirical losses; the score sensitivity is range/n where
// range is the public worst-case spread of per-record loss values over the
// candidate set.
type NetExpMech struct {
	// Candidates is the net size (default 64).
	Candidates int
	// Engine parallelizes the candidate scoring (see NoisyGD.Engine).
	Engine *xeval.Engine
}

// Name implements Oracle.
func (o NetExpMech) Name() string { return "netexp" }

// AnswerCost implements CostReporter: one exponential-mechanism selection,
// which is (ε, 0)-DP regardless of the δ it is offered.
func (o NetExpMech) AnswerCost(eps, _ float64) mech.Cost {
	return mech.PureCost(eps)
}

// Answer implements Oracle.
func (o NetExpMech) Answer(src *sample.Source, l convex.Loss, data *dataset.Dataset, eps, delta float64) ([]float64, error) {
	if err := ensureDenseData(o.Name(), data); err != nil {
		return nil, err
	}
	m := o.Candidates
	if m <= 0 {
		m = 64
	}
	if err := (mech.Params{Eps: eps, Delta: delta}).Validate(); err != nil {
		return nil, err
	}
	dom := l.Domain()
	d := dom.Dim()
	// Public candidate net: center + random points. Drawing before looking
	// at the data keeps the net data-independent.
	net := make([][]float64, 0, m)
	net = append(net, dom.Center())
	for len(net) < m {
		net = append(net, dom.Project(src.GaussianVec(d, dom.Diameter()/2)))
	}

	// Public score-range bound over (candidate, universe record) pairs:
	// one chunk-parallel EvalBatch sweep per candidate collecting per-chunk
	// minima and maxima (min/max reductions are order-independent, so the
	// result is worker-count deterministic).
	u := data.U
	lo, hi := math.Inf(1), math.Inf(-1)
	chunks := xeval.Chunks(u.Size())
	chunkLo := make([]float64, chunks)
	chunkHi := make([]float64, chunks)
	vals := make([]float64, u.Size())
	for _, th := range net {
		o.Engine.ForEach(u.Size(), func(clo, chi int) {
			out := vals[clo:chi]
			l.EvalBatch(out, th, u, clo, chi)
			cLo, cHi := math.Inf(1), math.Inf(-1)
			for _, v := range out {
				if v < cLo {
					cLo = v
				}
				if v > cHi {
					cHi = v
				}
			}
			c := clo / xeval.ChunkSize
			chunkLo[c], chunkHi[c] = cLo, cHi
		})
		for c := 0; c < chunks; c++ {
			if chunkLo[c] < lo {
				lo = chunkLo[c]
			}
			if chunkHi[c] > hi {
				hi = chunkHi[c]
			}
		}
	}
	rangeB := hi - lo
	if rangeB <= 0 {
		// Constant loss over the net: every candidate is equally good.
		return net[0], nil
	}
	sens := rangeB / float64(data.N())

	h := data.Histogram()
	scores := make([]float64, len(net))
	for i, th := range net {
		scores[i] = -convex.EvalOn(o.Engine, l, th, h)
	}
	idx, err := mech.Exponential(src, scores, sens, eps)
	if err != nil {
		return nil, err
	}
	return vecmath.Copy(net[idx]), nil
}
