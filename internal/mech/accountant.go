package mech

import (
	"errors"
	"fmt"
	"math"
	"sync"
)

// This file is the privacy-accounting layer: an Accountant interface and
// three certified composition calculi behind a closed set of names —
//
//	"basic"    — basic composition: (ε, δ) parameters add up;
//	"advanced" — DRV10 strong composition (paper Theorem 3.10) with the
//	             ε₀/δ₀ budget-splitting schedule; the default, and the
//	             accounting the paper's Theorem 3.9 analysis uses;
//	"zcdp"     — zero-concentrated DP (Bun–Steinke 2016): Gaussian-noise
//	             mechanisms spend ρ, ρ adds under composition, and the
//	             total converts to (ε, δ)-DP once at the end. Strictly
//	             tighter than DRV10 for Gaussian-based oracles.
//
// The three share one body, acctBase: the budget, the lock and the ledger
// (an AccountantState), with Reserve, Export and Restore written once.
// Each calculus adds only its schedule (PerCallBudget, MaxCalls) and its
// composition (Spend, Total) over its own fields of the ledger.
//
// Every accountant tracks spends in O(1) memory (streaming sums / maxima,
// never a per-spend slice) and is safe for concurrent use: long-lived
// serve sessions spend on every ⊤ answer while status endpoints read
// totals concurrently.

// Cost declares one mechanism invocation's privacy cost in the tightest
// calculus the mechanism certifies. Eps/Delta (the (ε, δ)-DP guarantee) are
// always set; Rho is nonzero only when the mechanism additionally certifies
// a ρ-zCDP bound (Gaussian-noise mechanisms). A pure-DP mechanism
// (Delta == 0) is convertible: ε-DP implies (ε²/2)-zCDP.
type Cost struct {
	Eps   float64 `json:"eps"`
	Delta float64 `json:"delta"`
	Rho   float64 `json:"rho,omitempty"`
}

// Validate rejects negative or non-finite cost components.
func (c Cost) Validate() error {
	for _, v := range []float64{c.Eps, c.Delta, c.Rho} {
		if v < 0 || math.IsNaN(v) || math.IsInf(v, 0) {
			return fmt.Errorf("mech: invalid cost %+v", c)
		}
	}
	return nil
}

// rho returns the spend's zCDP parameter: the certified Rho when present,
// the pure-DP conversion ε²/2 when Delta == 0, and 0 (no zCDP bound) for
// approximate-DP spends without a certificate.
func (c Cost) rho() float64 {
	if c.Rho > 0 {
		return c.Rho
	}
	if c.Delta == 0 {
		return c.Eps * c.Eps / 2
	}
	return 0
}

// ApproxCost declares a generic (ε, δ)-DP invocation with no tighter
// certificate.
func ApproxCost(eps, delta float64) Cost { return Cost{Eps: eps, Delta: delta} }

// PureCost declares an (ε, 0)-DP invocation (Laplace, exponential
// mechanism); pure DP implies (ε²/2)-zCDP (Bun–Steinke Proposition 1.4).
func PureCost(eps float64) Cost { return Cost{Eps: eps, Rho: eps * eps / 2} }

// Accountant tracks cumulative privacy spend against a total (ε, δ) budget
// under one composition calculus. Implementations are safe for concurrent
// use and store O(1) state regardless of how many spends are recorded.
type Accountant interface {
	// Name returns the accountant's name, one of AccountantNames.
	Name() string
	// Budget returns the configured total (ε, δ) budget.
	Budget() Params
	// Reserve permanently sets aside an (ε, δ) slice for a sub-mechanism
	// that does its own internal accounting (the sparse-vector algorithm in
	// PMW). Reserved budget is excluded from PerCallBudget/MaxCalls and
	// added linearly to Total.
	Reserve(p Params) error
	// PerCallBudget returns the per-call (ε₀, δ₀) to hand a mechanism so
	// that T calls compose within the unreserved budget under this
	// accountant's calculus.
	PerCallBudget(T int) (eps0, delta0 float64, err error)
	// MaxCalls returns how many calls of the given declared per-call cost
	// the accountant certifies within the unreserved budget (capped at
	// MaxCallsCap). The result is exact at the accountant's own schedule:
	// MaxCalls of a cost at PerCallBudget(T)'s parameters returns ≥ T.
	MaxCalls(c Cost) (int, error)
	// Spend records one mechanism invocation.
	Spend(c Cost) error
	// Count returns the number of recorded spends.
	Count() int
	// Total returns the composed (ε, δ) guarantee of everything recorded:
	// reservations (linear) plus the composed spends.
	Total() Params
	// Remaining returns Budget − Total, clamped at zero componentwise.
	Remaining() Params
	// Export snapshots the ledger for persistence. The streaming state is
	// O(1), so so is the snapshot.
	Export() AccountantState
	// Restore overwrites the ledger with a previously exported snapshot.
	// It fails if the snapshot names a different accountant or carries
	// invalid state; the budget is not part of the snapshot (it is fixed at
	// construction, so restore onto an accountant built from the same
	// configuration). After a successful Restore, Total/Remaining/MaxCalls
	// are bit-identical to the exporting accountant's.
	Restore(st AccountantState) error
}

// AccountantState is the serializable ledger of every accountant: the
// shared reservation/count state plus one field set per calculus (a
// calculus never sets another's fields, and unused fields stay zero and
// are omitted from JSON). A single concrete struct — rather than
// per-calculus opaque blobs — keeps snapshots self-describing and diffable
// in audit tooling. It is also each accountant's live ledger, so Export
// and Restore copy it whole.
type AccountantState struct {
	// Name is the accountant the state belongs to; Restore rejects a
	// mismatch.
	Name string `json:"name"`
	// Reserved is the slice permanently set aside via Reserve.
	Reserved Params `json:"reserved"`
	// Count is the number of recorded spends.
	Count int `json:"count"`
	// SumEps, SumDelta is "basic"'s running parameter sum.
	SumEps   float64 `json:"sum_eps,omitempty"`
	SumDelta float64 `json:"sum_delta,omitempty"`
	// MaxEps, MaxDelta are "advanced"'s per-component spend maxima;
	// DeltaPrime its composition slack δ′ = δ/4 (fixed at construction,
	// recorded so Restore can detect configuration drift).
	MaxEps     float64 `json:"max_eps,omitempty"`
	MaxDelta   float64 `json:"max_delta,omitempty"`
	DeltaPrime float64 `json:"delta_prime,omitempty"`
	// Rho is "zcdp"'s accumulated zCDP parameter; ApproxEps, ApproxDelta
	// its linear side bucket for uncertified approximate-DP spends.
	Rho         float64 `json:"rho,omitempty"`
	ApproxEps   float64 `json:"approx_eps,omitempty"`
	ApproxDelta float64 `json:"approx_delta,omitempty"`
}

// validate rejects snapshots with the wrong name, malformed fields, or
// fields of another calculus.
func (st AccountantState) validate(wantName string) error {
	if st.Name != wantName {
		return fmt.Errorf("mech: restoring %q state into %q accountant", st.Name, wantName)
	}
	if st.Count < 0 {
		return fmt.Errorf("mech: snapshot spend count %d is negative", st.Count)
	}
	for _, v := range []float64{
		st.Reserved.Eps, st.Reserved.Delta, st.SumEps, st.SumDelta,
		st.MaxEps, st.MaxDelta, st.Rho, st.ApproxEps, st.ApproxDelta,
	} {
		if v < 0 || math.IsNaN(v) || math.IsInf(v, 0) {
			return fmt.Errorf("mech: snapshot ledger field %v is negative or not finite", v)
		}
	}
	// Clear the shared fields and the named calculus's own: whatever is
	// left belongs to another calculus.
	switch st.Name {
	case "basic":
		st.SumEps, st.SumDelta = 0, 0
	case "advanced":
		st.MaxEps, st.MaxDelta, st.DeltaPrime = 0, 0, 0
	case "zcdp":
		st.Rho, st.ApproxEps, st.ApproxDelta = 0, 0, 0
	}
	st.Name, st.Reserved, st.Count = "", Params{}, 0
	if st != (AccountantState{}) {
		return fmt.Errorf("mech: %q snapshot sets another accountant's fields %+v", wantName, st)
	}
	return nil
}

// MaxCallsCap bounds MaxCalls results: horizons beyond it are
// indistinguishable from "unbounded" for every consumer (the MW update
// budget and session query caps are far smaller).
const MaxCallsCap = 1 << 26

// ErrUnknownAccountant is returned (wrapped) by NewAccountant for a name
// outside AccountantNames. The HTTP layer maps it to 400.
var ErrUnknownAccountant = errors.New("mech: unknown accountant")

// DefaultAccountant is the accountant used when no name is given: the
// paper's own DRV10 strong-composition accounting.
const DefaultAccountant = "advanced"

// AccountantNames returns the accountant names, sorted.
func AccountantNames() []string { return []string{"advanced", "basic", "zcdp"} }

// NewAccountant constructs the named accountant over the given total
// budget; the empty name selects DefaultAccountant. "advanced" and "zcdp"
// need δ > 0: the former's composition slack is δ′ = δ/4, matching
// Theorem 3.9's analysis of the oracle slice, and the latter converts ρ to
// (ε, δ)-DP through it.
func NewAccountant(name string, budget Params) (Accountant, error) {
	if name == "" {
		name = DefaultAccountant
	}
	st := AccountantState{Name: name}
	var a Accountant
	switch name {
	case "basic":
		a = &basicAccountant{acctBase{budget: budget, st: st}}
	case "advanced":
		st.DeltaPrime = budget.Delta / 4
		a = &advancedAccountant{acctBase{budget: budget, st: st}}
	case "zcdp":
		a = &zcdpAccountant{acctBase{budget: budget, st: st}}
	default:
		return nil, fmt.Errorf("%w %q (have %v)", ErrUnknownAccountant, name, AccountantNames())
	}
	if err := budget.Validate(); err != nil {
		return nil, err
	}
	if name != "basic" && budget.Delta == 0 {
		return nil, fmt.Errorf("mech: %s accounting requires delta > 0", name)
	}
	return a, nil
}

// acctBase is the body every accountant shares: the budget and the
// ledger behind one mutex. The ledger's Name never changes after
// construction (Restore refuses another name).
type acctBase struct {
	mu     sync.Mutex
	budget Params
	st     AccountantState
}

func (b *acctBase) Name() string {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.st.Name
}

func (b *acctBase) Budget() Params { return b.budget }

func (b *acctBase) Count() int {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.st.Count
}

func (b *acctBase) Reserve(p Params) error {
	if p.Eps < 0 || p.Delta < 0 || math.IsNaN(p.Eps) || math.IsNaN(p.Delta) {
		return fmt.Errorf("mech: invalid reservation %+v", p)
	}
	b.mu.Lock()
	defer b.mu.Unlock()
	r := &b.st.Reserved
	if r.Eps+p.Eps > b.budget.Eps || r.Delta+p.Delta > b.budget.Delta {
		return fmt.Errorf("mech: reservation (%v, %v) exceeds budget %+v", p.Eps, p.Delta, b.budget)
	}
	r.Eps += p.Eps
	r.Delta += p.Delta
	return nil
}

func (b *acctBase) Export() AccountantState {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.st
}

func (b *acctBase) Restore(st AccountantState) error {
	b.mu.Lock()
	defer b.mu.Unlock()
	if err := st.validate(b.st.Name); err != nil {
		return err
	}
	// δ′ is fixed at construction; a mismatch means the snapshot was taken
	// under a different configuration, so Total would silently change
	// meaning. Refuse rather than adopt either value.
	if st.DeltaPrime != b.st.DeltaPrime {
		return fmt.Errorf("mech: snapshot delta_prime %v != configured %v", st.DeltaPrime, b.st.DeltaPrime)
	}
	b.st = st
	return nil
}

// sliceLocked returns the unreserved budget (called under b.mu).
func (b *acctBase) sliceLocked() Params {
	return Params{Eps: b.budget.Eps - b.st.Reserved.Eps, Delta: b.budget.Delta - b.st.Reserved.Delta}
}

// remainingOf clamps budget − total at zero componentwise.
func remainingOf(budget, total Params) Params {
	r := Params{Eps: budget.Eps - total.Eps, Delta: budget.Delta - total.Delta}
	if r.Eps < 0 {
		r.Eps = 0
	}
	if r.Delta < 0 {
		r.Delta = 0
	}
	return r
}

// maxCallsBySchedule inverts a monotone per-call schedule: the largest T
// (≤ MaxCallsCap) with perCall(T) ≥ (eps0, delta0) componentwise. Exact at
// the schedule's own points because the comparison re-evaluates the same
// floating-point computation.
func maxCallsBySchedule(perCall func(T int) (float64, float64, error), eps0, delta0 float64) (int, error) {
	if eps0 <= 0 || math.IsNaN(eps0) || delta0 < 0 || math.IsNaN(delta0) {
		return 0, fmt.Errorf("mech: invalid per-call budget (%v, %v)", eps0, delta0)
	}
	fits := func(T int) bool {
		e, d, err := perCall(T)
		return err == nil && e >= eps0 && d >= delta0
	}
	if !fits(1) {
		return 0, fmt.Errorf("mech: budget affords no (%v, %v)-DP call", eps0, delta0)
	}
	lo := 1 // invariant: fits(lo)
	hi := 2
	for hi <= MaxCallsCap && fits(hi) {
		lo = hi
		hi *= 2
	}
	if hi > MaxCallsCap {
		hi = MaxCallsCap + 1
	}
	// Binary search in (lo, hi): fits(lo), !fits(hi).
	for hi-lo > 1 {
		mid := lo + (hi-lo)/2
		if fits(mid) {
			lo = mid
		} else {
			hi = mid
		}
	}
	return lo, nil
}

// ---------------------------------------------------------------------------
// basic

// basicAccountant composes by parameter addition, the only rule valid for
// arbitrary heterogeneous approximate-DP spends. Its ledger fields are
// SumEps and SumDelta.
type basicAccountant struct{ acctBase }

func (a *basicAccountant) PerCallBudget(T int) (float64, float64, error) {
	if T < 1 {
		return 0, 0, fmt.Errorf("mech: composition length %d < 1", T)
	}
	a.mu.Lock()
	s := a.sliceLocked()
	a.mu.Unlock()
	return s.Eps / float64(T), s.Delta / float64(T), nil
}

func (a *basicAccountant) MaxCalls(c Cost) (int, error) {
	if err := c.Validate(); err != nil {
		return 0, err
	}
	return maxCallsBySchedule(a.PerCallBudget, c.Eps, c.Delta)
}

func (a *basicAccountant) Spend(c Cost) error {
	if err := c.Validate(); err != nil {
		return err
	}
	a.mu.Lock()
	defer a.mu.Unlock()
	a.st.SumEps += c.Eps
	a.st.SumDelta += c.Delta
	a.st.Count++
	return nil
}

func (a *basicAccountant) Total() Params {
	a.mu.Lock()
	defer a.mu.Unlock()
	return Params{Eps: a.st.Reserved.Eps + a.st.SumEps, Delta: a.st.Reserved.Delta + a.st.SumDelta}
}

func (a *basicAccountant) Remaining() Params { return remainingOf(a.budget, a.Total()) }

// ---------------------------------------------------------------------------
// advanced (DRV10, paper Theorem 3.10)

// advancedAccountant composes homogeneous spends under the strong
// composition theorem; heterogeneous spends are bounded by their maxima
// (Theorem 3.10 is stated for homogeneous compositions). Streaming state:
// only the spend count and the per-component maxima MaxEps and MaxDelta
// are kept, beside the composition slack DeltaPrime that Total uses.
type advancedAccountant struct{ acctBase }

func (a *advancedAccountant) PerCallBudget(T int) (float64, float64, error) {
	a.mu.Lock()
	s := a.sliceLocked()
	a.mu.Unlock()
	return SplitBudget(s.Eps, s.Delta, T)
}

func (a *advancedAccountant) MaxCalls(c Cost) (int, error) {
	if err := c.Validate(); err != nil {
		return 0, err
	}
	return maxCallsBySchedule(a.PerCallBudget, c.Eps, c.Delta)
}

func (a *advancedAccountant) Spend(c Cost) error {
	if err := c.Validate(); err != nil {
		return err
	}
	a.mu.Lock()
	defer a.mu.Unlock()
	if c.Eps > a.st.MaxEps {
		a.st.MaxEps = c.Eps
	}
	if c.Delta > a.st.MaxDelta {
		a.st.MaxDelta = c.Delta
	}
	a.st.Count++
	return nil
}

func (a *advancedAccountant) Total() Params {
	a.mu.Lock()
	defer a.mu.Unlock()
	t := a.st.Reserved
	if a.st.Count == 0 {
		return t
	}
	adv, err := AdvancedComposition(a.st.MaxEps, a.st.MaxDelta, a.st.Count, a.st.DeltaPrime)
	if err != nil {
		// Fall back to the schedule's worst case: the whole unreserved slice.
		adv = a.sliceLocked()
	}
	t.Eps += adv.Eps
	t.Delta += adv.Delta
	return t
}

func (a *advancedAccountant) Remaining() Params { return remainingOf(a.budget, a.Total()) }

// ---------------------------------------------------------------------------
// zcdp (Bun–Steinke 2016)

// zcdpAccountant composes in ρ: every spend that certifies a zCDP bound
// (Gaussian Rho, or pure-DP ε → ε²/2) adds its ρ, and Total converts the
// accumulated ρ to (ε, δ)-DP once, at the conversion δ — the whole
// unreserved δ slice, since exact zCDP mechanisms consume no δ themselves.
// Approximate-DP spends with no certificate (rho() == 0) cannot ride the ρ
// calculus; they fall into a linear side bucket (ApproxEps, ApproxDelta)
// composed basically.
type zcdpAccountant struct{ acctBase }

// convDeltaLocked is the δ dedicated to the single ρ→DP conversion (called
// under a.mu): the unreserved δ slice, halved when uncertified spends also
// need δ.
func (a *zcdpAccountant) convDeltaLocked() float64 {
	d := a.sliceLocked().Delta
	if a.st.ApproxDelta > 0 {
		d /= 2
	}
	return d
}

// rhoMaxLocked returns the ρ budget of the unreserved slice: the largest ρ
// with ρ + 2√(ρ·ln(1/δ)) ≤ ε (solving RhoToDP's bound as an equality),
// i.e. ρ = (√(L + ε) − √L)² with L = ln(1/δ).
func (a *zcdpAccountant) rhoMaxLocked() float64 {
	s := a.sliceLocked()
	if s.Delta <= 0 || s.Eps <= 0 {
		return 0
	}
	l := math.Log(1 / s.Delta)
	r := math.Sqrt(l+s.Eps) - math.Sqrt(l)
	return r * r
}

func (a *zcdpAccountant) PerCallBudget(T int) (float64, float64, error) {
	if T < 1 {
		return 0, 0, fmt.Errorf("mech: composition length %d < 1", T)
	}
	a.mu.Lock()
	rhoMax := a.rhoMaxLocked()
	s := a.sliceLocked()
	a.mu.Unlock()
	if rhoMax <= 0 {
		return 0, 0, fmt.Errorf("mech: zcdp accounting requires positive (ε, δ) slice, have %+v", s)
	}
	rho0 := rhoMax / float64(T)
	// δ₀ is only a calibration knob handed to Gaussian oracles (zCDP itself
	// consumes no per-call δ); the δ/(2T) schedule keeps it comparable to
	// the DRV10 split. ε₀ inverts the canonical Gaussian cost
	// ρ = ε₀²/(4·ln(1.25/δ₀)), capped at 1 where the classical calibration
	// bound is valid — spending below the ρ budget is always sound.
	delta0 := s.Delta / (2 * float64(T))
	eps0 := 2 * math.Sqrt(rho0*math.Log(1.25/delta0))
	if eps0 > 1 {
		eps0 = 1
	}
	return eps0, delta0, nil
}

func (a *zcdpAccountant) MaxCalls(c Cost) (int, error) {
	if err := c.Validate(); err != nil {
		return 0, err
	}
	a.mu.Lock()
	rhoMax := a.rhoMaxLocked()
	s := a.sliceLocked()
	a.mu.Unlock()
	if rho := c.rho(); rho > 0 {
		if rhoMax <= 0 {
			return 0, fmt.Errorf("mech: zcdp accounting requires positive (ε, δ) slice, have %+v", s)
		}
		if t := rhoMax / rho; t < float64(MaxCallsCap) {
			if t < 1 {
				return 0, fmt.Errorf("mech: ρ budget %v affords no ρ = %v call", rhoMax, rho)
			}
			return int(t), nil
		}
		return MaxCallsCap, nil
	}
	// Uncertified approximate-DP cost: linear against the slice, keeping
	// half the δ for the conversion of any certified spends.
	t := float64(MaxCallsCap)
	if c.Eps > 0 {
		t = math.Min(t, s.Eps/c.Eps)
	}
	if c.Delta > 0 {
		t = math.Min(t, s.Delta/2/c.Delta)
	}
	if t < 1 {
		return 0, fmt.Errorf("mech: slice %+v affords no (%v, %v)-DP call", s, c.Eps, c.Delta)
	}
	return int(t), nil
}

func (a *zcdpAccountant) Spend(c Cost) error {
	if err := c.Validate(); err != nil {
		return err
	}
	a.mu.Lock()
	defer a.mu.Unlock()
	if rho := c.rho(); rho > 0 {
		a.st.Rho += rho
	} else {
		a.st.ApproxEps += c.Eps
		a.st.ApproxDelta += c.Delta
	}
	a.st.Count++
	return nil
}

func (a *zcdpAccountant) Total() Params {
	a.mu.Lock()
	defer a.mu.Unlock()
	t := Params{
		Eps:   a.st.Reserved.Eps + a.st.ApproxEps,
		Delta: a.st.Reserved.Delta + a.st.ApproxDelta,
	}
	if rho := a.st.Rho; rho > 0 {
		dp, err := RhoToDP(rho, a.convDeltaLocked())
		if err != nil {
			// No usable conversion δ: report the loose pure-DP-style bound.
			dp = Params{Eps: rho + 2*math.Sqrt(rho*math.Log(1/a.budget.Delta))}
		}
		t.Eps += dp.Eps
		t.Delta += dp.Delta
	}
	return t
}

func (a *zcdpAccountant) Remaining() Params { return remainingOf(a.budget, a.Total()) }
