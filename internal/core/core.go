// Package core implements the paper's primary contribution: Online Private
// Multiplicative Weights for convex-minimization queries (Figure 3 of
// Ullman, "Private Multiplicative Weights Beyond Linear Queries", PODS
// 2015).
//
// The Server answers an adaptively chosen online sequence of CM queries
// ℓ¹, …, ℓᵏ on a private dataset D under (ε, δ)-differential privacy. It
// maintains a public hypothesis histogram D̂t (starting uniform) and, per
// query ℓ:
//
//  1. computes the sensitive value q(D) = err_ℓ(D, D̂t) — how badly the
//     hypothesis's minimizer performs on the true data — and feeds it to
//     the online sparse vector algorithm (internal/sparse);
//
//  2. on ⊥ ("hypothesis already accurate"), answers with the public
//     minimizer argmin_θ ℓ(θ; D̂t), spending no further privacy budget;
//
//  3. on ⊤, asks the single-query oracle A′ (internal/erm) for a private
//     approximate minimizer θt, answers with it, and performs one
//     multiplicative-weights update with the dual-certificate vector
//
//     u_t(x) = ⟨θt − θ̂t, ∇ℓ_x(θ̂t)⟩,    θ̂t = argmin_θ ℓ(θ; D̂t),
//
//     the paper's key novelty (Claim 3.5): first-order optimality converts
//     "D̂t answers the CM query badly" into a linear query on which D̂t is
//     also inaccurate, so the standard MW regret argument (Lemma 3.4) caps
//     the number of updates at T = 64·S²·log|X|/α².
//
// Privacy (Theorem 3.9): SV gets (ε/2, δ/2); the ≤ T oracle calls get
// (ε/2, δ/2) via the strong-composition schedule of Theorem 3.10. Accuracy
// (Theorem 3.8): every query is answered with excess risk ≤ α provided n
// exceeds both the oracle's requirement and the sparse-vector bound.
//
// Composition is pluggable: Config.Accountant selects a mech.Accountant
// (the DRV10 default reproduces Theorem 3.9's accounting exactly; "zcdp"
// composes Gaussian-noise oracle spends in ρ and certifies a strictly
// larger update horizon T from the same budget). The per-oracle-call noise
// level always follows Theorem 3.10's schedule at the *requested* horizon,
// so ⊤-answer accuracy is independent of the accounting in force; an
// extended horizon does run the sparse vector over more epochs, whose
// threshold noise grows ~√T within its fixed (ε/2, δ/2) slice — the same
// trade a larger TBudget makes, surfaced here by the accountant instead of
// the operator.
package core

import (
	"errors"
	"fmt"
	"math"

	"repro/internal/convex"
	"repro/internal/dataset"
	"repro/internal/erm"
	"repro/internal/histogram"
	"repro/internal/mech"
	"repro/internal/mw"
	"repro/internal/optimize"
	"repro/internal/sample"
	"repro/internal/sparse"
	"repro/internal/universe"
	"repro/internal/vecmath"
	"repro/internal/xeval"
)

// Config parameterizes the online PMW server.
type Config struct {
	// Eps, Delta is the total privacy budget of the whole interaction.
	Eps, Delta float64
	// Alpha is the target excess-risk accuracy; Beta the failure
	// probability (Beta is used only for parameter bookkeeping).
	Alpha, Beta float64
	// K is the maximum number of queries the analyst may ask.
	K int
	// S is the scale parameter of the loss family:
	// max |⟨θ−θ′, ∇ℓ_x(θ)⟩| ≤ S for every ℓ in the family. Use
	// convex.ScaleBound on a representative loss.
	S float64
	// Oracle is the single-query algorithm A′.
	Oracle erm.Oracle
	// TBudget overrides the paper's worst-case update horizon
	// T = 64·S²·log|X|/α² when positive. The paper's constant is safe but
	// astronomically conservative; practical deployments (HLM12's MWEM
	// experiments) run with far smaller T, which increases η and the
	// per-call budget ε₀ while keeping the composition-based privacy
	// accounting exactly valid. Worst-case accuracy guarantees then hold
	// only for the overridden horizon.
	TBudget int
	// Deprecated: ignored. Every universe-sized computation runs on
	// min(GOMAXPROCS, chunks) xeval workers, and the released answers are
	// bit-identical for every count. pmwbench still sets this field; the
	// benchmark change of ROADMAP item 11 removes that setter, and the
	// field is deleted after it.
	Workers int
	// Accountant names the privacy-accounting strategy, one of
	// mech.AccountantNames ("basic", "advanced", "zcdp"; empty selects
	// "advanced", the DRV10 strong composition the paper's Theorem 3.9
	// uses). The accountant owns the whole interaction budget: the
	// sparse-vector slice is reserved through it, the oracle-call horizon
	// is however many calls at Figure 3's per-call noise level it
	// certifies, and every ⊤ spend is recorded with the tightest cost the
	// oracle declares (Gaussian oracles report zCDP ρ). Unknown names are
	// rejected with a mech.ErrUnknownAccountant-wrapped error (HTTP 400).
	Accountant string
	// Trace enables per-update diagnostics (costs extra computation and
	// reads the private data for *reporting only*; leave off outside
	// experiments). Trace requires the dense engine: the diagnostics
	// compare full histograms, so New rejects it past universe.DenseLimit.
	Trace bool
}

// solverIters bounds every argmin solve of Server.Answer and AnswerOffline.
const solverIters = 400

// Engine names reported by Server.EngineName.
const (
	EngineDense    = "dense"
	EngineFactored = "factored"
)

// ErrNeedsSupport is returned (wrapped) by Answer when the factored engine
// receives a loss without a declared coordinate support.
var ErrNeedsSupport = errors.New("core: factored engine requires a loss with declared coordinate support")

// validate rejects malformed configurations.
func (c Config) validate() error {
	if err := (mech.Params{Eps: c.Eps, Delta: c.Delta}).Validate(); err != nil {
		return err
	}
	if c.Delta == 0 {
		return fmt.Errorf("core: the algorithm requires delta > 0 (Theorem 3.8)")
	}
	if c.Alpha <= 0 || c.Alpha > 1 {
		return fmt.Errorf("core: alpha %v must be in (0, 1]", c.Alpha)
	}
	if c.Beta <= 0 || c.Beta >= 1 {
		return fmt.Errorf("core: beta %v must be in (0, 1)", c.Beta)
	}
	if c.K < 1 {
		return fmt.Errorf("core: K %d must be ≥ 1", c.K)
	}
	if c.S <= 0 {
		return fmt.Errorf("core: scale S %v must be positive", c.S)
	}
	if c.Oracle == nil {
		return fmt.Errorf("core: nil oracle")
	}
	return nil
}

// Params are the derived algorithm parameters of Figure 3.
type Params struct {
	// T is the update budget 64·S²·log|X|/α².
	T int
	// Eta is the MW learning rate.
	Eta float64
	// Eps0, Delta0 is the per-oracle-call budget.
	Eps0, Delta0 float64
	// Alpha0 = α/4 is the oracle accuracy target; Beta0 = β/(2T) its
	// failure probability.
	Alpha0, Beta0 float64
	// Sensitivity is the sparse-vector query sensitivity 3S/n.
	Sensitivity float64
}

// UpdateTrace records one MW update, for the Figure-3 internals experiment.
// All fields except QueryIndex/UpdateIndex read the private data and exist
// purely for diagnostics.
type UpdateTrace struct {
	QueryIndex  int     // j: which analyst query triggered the update
	UpdateIndex int     // t: 1-based update counter
	TrueErr     float64 // err_ℓ(D, D̂t) before the update
	Progress    float64 // ⟨u_t, D̂t − D⟩ (Claim 3.6 says > α/4 whp)
	Potential   float64 // KL(D ‖ D̂t) before the update
}

// ErrHalted is returned by Answer once the server has stopped (sparse
// vector exhausted its T tops or saw K queries).
var ErrHalted = errors.New("core: server has halted")

// Server is one interactive run of online PMW for CM queries. Not safe for
// concurrent use: the analyst protocol is inherently sequential.
type Server struct {
	cfg    Config
	params Params
	data   *dataset.Dataset
	src    *sample.Source
	sv     *sparse.SV
	state  *mw.State         // dense engine
	fu     universe.Factored // factored engine: the product universe
	fstate *mw.FactoredState // factored engine
	eng    *xeval.Engine
	acct   mech.Accountant
	// callCost is the oracle's declared cost of one (ε₀, δ₀) call — what
	// each ⊤ answer spends on the accountant.
	callCost mech.Cost

	answered int
	traces   []UpdateTrace
}

// New constructs a server for the given private dataset. The engine
// follows from the universe: dense while universe.EnsureDense passes, and
// past universe.DenseLimit factored when the universe is
// universe.Factored; any other universe past the limit is rejected with a
// wrapped universe.ErrTooLarge.
func New(cfg Config, data *dataset.Dataset, src *sample.Source) (*Server, error) {
	factored := false
	if data != nil && universe.EnsureDense(data.U) != nil {
		_, factored = data.U.(universe.Factored)
	}
	return newServer(cfg, data, src, factored)
}

// newServer builds a server whose hypothesis is the dense mw.State or,
// when factored is set, the product-form mw.FactoredState. New and Restore
// choose factored from the data and the snapshot; the engine tests force
// it on universes within the dense limit to compare the two.
func newServer(cfg Config, data *dataset.Dataset, src *sample.Source, factored bool) (*Server, error) {
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	if data == nil || data.N() == 0 {
		return nil, fmt.Errorf("core: empty dataset")
	}
	if src == nil {
		return nil, fmt.Errorf("core: nil random source")
	}
	fu, isFactored := data.U.(universe.Factored)
	switch {
	case !factored:
		if err := universe.EnsureDense(data.U); err != nil {
			return nil, fmt.Errorf("core: dense engine: %w", err)
		}
	case !isFactored:
		return nil, fmt.Errorf("core: factored engine requires a product-structured universe (universe %s)", data.U)
	case cfg.Trace:
		return nil, fmt.Errorf("core: Trace requires the dense engine (diagnostics compare full histograms)")
	}
	xsize := data.U.Size()
	// The MW regret bound caps useful updates at 64·S²·log|X|/α²; the
	// requested horizon is that bound or the practical TBudget override.
	tMW := mw.UpdateBudget(cfg.S, cfg.Alpha, xsize)
	tReq := tMW
	if cfg.TBudget > 0 {
		tReq = cfg.TBudget
	}
	// The accountant owns the whole (ε, δ) interaction budget; the sparse
	// vector's (ε/2, δ/2) slice (Theorem 3.9) is reserved through it and
	// composed linearly with the oracle calls.
	acct, err := mech.NewAccountant(cfg.Accountant, mech.Params{Eps: cfg.Eps, Delta: cfg.Delta})
	if err != nil {
		return nil, fmt.Errorf("core: %w", err)
	}
	if err := acct.Reserve(mech.Params{Eps: cfg.Eps / 2, Delta: cfg.Delta / 2}); err != nil {
		return nil, fmt.Errorf("core: %w", err)
	}
	// Per-oracle-call noise contract: the paper's Theorem-3.10 schedule at
	// the requested horizon. This fixes each answer's noise level (hence
	// per-answer accuracy) independent of the accounting in force.
	eps0, delta0, err := mech.SplitBudget(cfg.Eps/2, cfg.Delta/2, tReq)
	if err != nil {
		return nil, err
	}
	// The update horizon is however many calls of the oracle's declared
	// per-call cost the accountant certifies within the oracle slice:
	// exactly tReq for "advanced" (the schedule inverts its own MaxCalls),
	// strictly more under "zcdp" with Gaussian-noise oracles, and fewer
	// when the accounting is loose for this regime. Extensions beyond the
	// request are capped at the MW regret bound and the query cap K —
	// updates past either can never be spent.
	callCost := erm.CostOf(cfg.Oracle, eps0, delta0)
	T, err := acct.MaxCalls(callCost)
	if err != nil {
		return nil, fmt.Errorf("core: accountant %q: %w", acct.Name(), err)
	}
	if T > tReq {
		if T > tMW {
			T = tMW
		}
		if T > cfg.K {
			T = cfg.K
		}
		if T < tReq {
			T = tReq
		}
	}
	eta := mw.Eta(cfg.S, T, xsize)
	p := Params{
		T:           T,
		Eta:         eta,
		Eps0:        eps0,
		Delta0:      delta0,
		Alpha0:      cfg.Alpha / 4,
		Beta0:       cfg.Beta / (2 * float64(T)),
		Sensitivity: 3 * cfg.S / float64(data.N()),
	}
	sv, err := sparse.New(svConfig(cfg, p), src.Split())
	if err != nil {
		return nil, err
	}
	eng := xeval.New(0)
	srv := &Server{
		cfg:      cfg,
		params:   p,
		data:     data,
		src:      src,
		sv:       sv,
		eng:      eng,
		acct:     acct,
		callCost: callCost,
	}
	if factored {
		fstate, err := mw.NewFactored(fu, eta, cfg.S)
		if err != nil {
			return nil, err
		}
		srv.fu, srv.fstate = fu, fstate
	} else {
		state, err := mw.New(data.U, eta, cfg.S)
		if err != nil {
			return nil, err
		}
		state.SetEngine(eng)
		srv.state = state
	}
	return srv, nil
}

// svConfig is the sparse-vector configuration Figure 3 derives from the
// server configuration: the (ε/2, δ/2) slice over the certified horizon.
// Restore re-derives it through the same function, so a restored SV runs
// under exactly the parameters the original did.
func svConfig(cfg Config, p Params) sparse.Config {
	return sparse.Config{
		T:           p.T,
		K:           cfg.K,
		Alpha:       cfg.Alpha,
		Eps:         cfg.Eps / 2,
		Delta:       cfg.Delta / 2,
		Sensitivity: p.Sensitivity,
	}
}

// EngineName returns the evaluation engine in force: EngineDense or
// EngineFactored.
func (s *Server) EngineName() string {
	if s.fstate != nil {
		return EngineFactored
	}
	return EngineDense
}

// Params returns the derived Figure-3 parameters.
func (s *Server) Params() Params { return s.params }

// Halted reports whether the server has stopped answering.
func (s *Server) Halted() bool { return s.sv.Halted() }

// Updates returns the number of MW updates performed so far (t−1 in the
// paper's indexing).
func (s *Server) Updates() int {
	if s.fstate != nil {
		return s.fstate.Updates()
	}
	return s.state.Updates()
}

// Answered returns the number of queries answered so far.
func (s *Server) Answered() int { return s.answered }

// Hypothesis returns the current public hypothesis D̂t. Per the paper's
// §4.3 remark, this doubles as a differentially private synthetic dataset:
// it is a post-processing of the mechanism's private interactions. Under
// the factored engine the full histogram is never materialized (the
// universe may exceed the dense limit) and Hypothesis returns nil; use
// SyntheticRows for a row-level release.
func (s *Server) Hypothesis() *histogram.Histogram {
	if s.fstate != nil {
		return nil
	}
	return s.state.Histogram().Clone()
}

// SyntheticRows samples m records from the current hypothesis — a
// row-level synthetic dataset release (§4.3: "our algorithm indeed can be
// modified to output a synthetic dataset"). The sampling is pure
// post-processing of the private hypothesis, so it carries no additional
// privacy cost.
func (s *Server) SyntheticRows(src *sample.Source, m int) (*dataset.Dataset, error) {
	if m < 1 {
		return nil, fmt.Errorf("core: synthetic size %d must be ≥ 1", m)
	}
	if src == nil {
		return nil, fmt.Errorf("core: nil random source")
	}
	if s.fstate != nil {
		return dataset.New(s.data.U, s.fstate.SampleRows(src, m))
	}
	rows := s.state.Histogram().SampleRows(src, m)
	return dataset.New(s.data.U, rows)
}

// Traces returns the per-update diagnostics collected so far (empty unless
// Config.Trace).
func (s *Server) Traces() []UpdateTrace { return s.traces }

// Privacy returns the server's total (ε, δ) guarantee under the session's
// accountant: the reserved SV slice plus the composed bound over the
// oracle calls actually made.
func (s *Server) Privacy() mech.Params { return s.acct.Total() }

// Remaining returns the unspent budget under the accountant's calculus,
// clamped at zero componentwise.
func (s *Server) Remaining() mech.Params { return s.acct.Remaining() }

// AccountantName returns the accounting mode in force.
func (s *Server) AccountantName() string { return s.acct.Name() }

// CallCost returns the oracle's declared per-call cost — what one more ⊤
// answer spends (Gaussian oracles certify a zCDP ρ alongside (ε₀, δ₀)).
func (s *Server) CallCost() mech.Cost { return s.callCost }

// view is one query's evaluation frame for the Figure-3 step: the public
// hypothesis and the private data as histograms over the universe u the
// step sweeps, and the sink for the ⊤ certificate (indexed like u). The
// engines differ only here. The dense view is the whole universe; the
// factored view is the loss's declared support sub-cube — a loss supported
// on coordinates C takes identical values on the embedded sub-universe
// (universe.SupportUniverse pins non-support coordinates, the loss never
// reads them), so the same minimization and evaluation machinery runs over
// |C|-many coordinates instead of |X| elements and the released answers
// follow the exact definitions of the dense step.
type view struct {
	hyp, data *histogram.Histogram
	u         universe.Universe
	update    func(uvec []float64) error
}

// viewFor builds l's evaluation frame under the server's engine.
func (s *Server) viewFor(l convex.Loss) (view, error) {
	if s.fstate == nil {
		return view{hyp: s.state.Histogram(), data: s.data.Histogram(), u: s.data.U, update: s.state.Update}, nil
	}
	coords, ok := convex.SupportOf(l)
	if !ok {
		return view{}, fmt.Errorf("%w: loss %q declares none", ErrNeedsSupport, l.Name())
	}
	subU, err := universe.SupportUniverse(s.fu, coords)
	if err != nil {
		return view{}, fmt.Errorf("core: factored engine: %w", err)
	}
	// The hypothesis's support marginal weights E[x ∈ cell] match the dense
	// hypothesis exactly (product form is exact under junta updates), and
	// ℓ_D(θ) = Σ_cell P_D(cell)·ℓ_cell(θ) because the loss reads only the
	// support coordinates, so argmin and err_ℓ(D, D̂t) are unchanged from
	// their dense definitions.
	hyp, err := s.fstate.SupportHistogram(coords)
	if err != nil {
		return view{}, err
	}
	hyp.U = subU // one materialization of the sub-cube for the whole answer
	data, err := s.supportData(coords, subU)
	if err != nil {
		return view{}, err
	}
	// The certificate is computed over subU, in the SupportLevelsInto layout
	// FactoredState.Update expects (SupportUniverse enumerates the same
	// order).
	update := func(uvec []float64) error {
		if err := s.fstate.Update(coords, uvec); err != nil {
			return fmt.Errorf("core: factored MW update: %w", err)
		}
		return nil
	}
	return view{hyp: hyp, data: data, u: subU, update: update}, nil
}

// supportData returns the private dataset's exact marginal histogram over
// the support sub-cube: each row contributes to the cell its support
// coordinates project to. O(n·dim), never enumerating the universe.
func (s *Server) supportData(coords []int, subU universe.Universe) (*histogram.Histogram, error) {
	counts := make([]int, subU.Size())
	buf := make([]int, s.fu.Dim())
	for _, r := range s.data.Rows {
		counts[universe.ProjectIndex(s.fu, coords, r, buf)]++
	}
	return histogram.FromCounts(subU, counts)
}

// Answer processes the analyst's next loss function and returns the
// private answer θ̂ʲ. It returns ErrHalted once the server has stopped.
func (s *Server) Answer(l convex.Loss) ([]float64, error) {
	if s.Halted() {
		return nil, ErrHalted
	}
	if got := convex.ScaleBound(l); got > s.cfg.S+1e-9 {
		return nil, fmt.Errorf("core: query scale bound %v exceeds configured S = %v", got, s.cfg.S)
	}
	v, err := s.viewFor(l)
	if err != nil {
		return nil, err
	}
	opts := optimize.Options{MaxIters: solverIters, Engine: s.eng}

	// θ̂t: public minimizer on the current hypothesis.
	res, err := optimize.Minimize(l, v.hyp, opts)
	if err != nil {
		return nil, err
	}
	thetaHat := res.Theta
	// Sensitive query value for SV:
	// q(D) = err_ℓ(D, D̂t) = ℓ_D(θ̂t) − min_θ ℓ_D(θ).
	minD, err := optimize.MinValue(l, v.data, opts)
	if err != nil {
		return nil, err
	}
	qval := convex.EvalOn(s.eng, l, thetaHat, v.data) - minD
	if qval < 0 {
		qval = 0
	}
	top, err := s.sv.Query(qval)
	if err != nil {
		if err == sparse.ErrHalted {
			return nil, ErrHalted
		}
		return nil, err
	}
	s.answered++
	if !top {
		return thetaHat, nil
	}

	// ⊤: private single-query solve, then MW update.
	theta, err := s.cfg.Oracle.Answer(s.src, l, s.data, s.params.Eps0, s.params.Delta0)
	if err != nil {
		return nil, fmt.Errorf("core: oracle %q failed: %w", s.cfg.Oracle.Name(), err)
	}
	if err := s.acct.Spend(s.callCost); err != nil {
		// Unreachable for validated costs (callCost is fixed at New and
		// checked there via MaxCalls); if it ever fires, fail loudly — the
		// ledger and the released interaction have desynchronized.
		return nil, fmt.Errorf("core: recording oracle spend: %w", err)
	}
	// Defensive post-processing: an oracle returning a point outside Θ
	// would break the scale bound on the MW update vector (|u_t| ≤ S needs
	// θt, θ̂t ∈ Θ). Projection is free — it is post-processing of an
	// already-private answer.
	if dom := l.Domain(); len(theta) != dom.Dim() {
		return nil, fmt.Errorf("core: oracle %q returned dimension %d, want %d",
			s.cfg.Oracle.Name(), len(theta), dom.Dim())
	} else if !dom.Contains(theta, 1e-9) {
		theta = dom.Project(theta)
	}

	// The dual-certificate MW step: u_t(x) = ⟨θt − θ̂t, ∇ℓ_x(θ̂t)⟩, computed
	// chunk-parallel on the server's engine via the loss's DirGradBatch
	// kernel.
	uvec := make([]float64, v.u.Size())
	convex.DirGradOn(s.eng, l, uvec, vecmath.Sub(theta, thetaHat), thetaHat, v.u)
	s.eng.ForEach(len(uvec), func(lo, hi int) {
		for i := lo; i < hi; i++ {
			x := uvec[i]
			// Clamp tiny overshoot of the certified scale bound; anything
			// larger is a real contract violation that the MW update will
			// reject.
			if x > s.cfg.S && x <= s.cfg.S*(1+1e-12) {
				uvec[i] = s.cfg.S
			} else if x < -s.cfg.S && x >= -s.cfg.S*(1+1e-12) {
				uvec[i] = -s.cfg.S
			}
		}
	})
	if s.cfg.Trace { // dense engine only (New rejects Trace otherwise)
		s.traces = append(s.traces, UpdateTrace{
			QueryIndex:  s.answered,
			UpdateIndex: s.state.Updates() + 1,
			TrueErr:     qval,
			Progress:    vecmath.Dot(uvec, vecmath.Sub(v.hyp.P, v.data.P)),
			Potential:   clampKL(s.state.Potential(v.data)),
		})
	}
	if err := v.update(uvec); err != nil {
		return nil, err
	}
	return theta, nil
}

// clampKL guards +Inf potentials (empty hypothesis support) for traces.
func clampKL(v float64) float64 {
	if math.IsInf(v, 1) {
		return math.MaxFloat64
	}
	return v
}

// MinDatasetSize returns Theorem 3.8's sample-size requirement
// n ≥ 4096·S²·√(log|X|·log(4/δ))·log(8k/β) / (ε·α²), excluding the
// oracle's own n′ requirement (which depends on the oracle).
func MinDatasetSize(cfg Config, universeSize int) int {
	n := 4096 * cfg.S * cfg.S *
		math.Sqrt(math.Log(float64(universeSize))*math.Log(4/cfg.Delta)) *
		math.Log(8*float64(cfg.K)/cfg.Beta) /
		(cfg.Eps * cfg.Alpha * cfg.Alpha)
	return int(n) + 1
}
