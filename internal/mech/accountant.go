package mech

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"sort"
	"sync"
)

// This file is the pluggable privacy-accounting layer: an Accountant
// interface with a named registry (mirroring the convex loss registry) and
// three certified implementations —
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
	// Name returns the registered accountant name.
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

// AccountantState is the serializable ledger of any registered accountant:
// the shared reservation/count state plus one field set per calculus
// (unused fields stay zero and are omitted from JSON). A single concrete
// struct — rather than per-implementation opaque blobs — keeps snapshots
// self-describing and diffable in audit tooling.
type AccountantState struct {
	// Name is the registered accountant the state belongs to; Restore
	// rejects a mismatch.
	Name string `json:"name"`
	// Reserved is the slice permanently set aside via Reserve.
	Reserved Params `json:"reserved"`
	// Count is the number of recorded spends.
	Count int `json:"count"`
	// SumEps, SumDelta is "basic"'s running parameter sum.
	SumEps   float64 `json:"sum_eps,omitempty"`
	SumDelta float64 `json:"sum_delta,omitempty"`
	// MaxEps, MaxDelta are "advanced"'s per-component spend maxima;
	// DeltaPrime its composition slack (construction-time, recorded so
	// Restore can detect configuration drift).
	MaxEps     float64 `json:"max_eps,omitempty"`
	MaxDelta   float64 `json:"max_delta,omitempty"`
	DeltaPrime float64 `json:"delta_prime,omitempty"`
	// Rho is "zcdp"'s accumulated zCDP parameter; ApproxEps, ApproxDelta
	// its linear side bucket for uncertified approximate-DP spends.
	Rho         float64 `json:"rho,omitempty"`
	ApproxEps   float64 `json:"approx_eps,omitempty"`
	ApproxDelta float64 `json:"approx_delta,omitempty"`
}

// validateState rejects snapshots with the wrong name or malformed shared
// fields; the numeric ledger fields are checked componentwise.
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
	return nil
}

// MaxCallsCap bounds MaxCalls results: horizons beyond it are
// indistinguishable from "unbounded" for every consumer (the MW update
// budget and session query caps are far smaller).
const MaxCallsCap = 1 << 26

// ErrUnknownAccountant is returned (wrapped) by NewAccountant for an
// unregistered name. The HTTP layer maps it to 400.
var ErrUnknownAccountant = errors.New("mech: unknown accountant")

// DefaultAccountant is the accountant used when no name is given: the
// paper's own DRV10 strong-composition accounting.
const DefaultAccountant = "advanced"

// AccountantBuilder constructs an accountant over a validated budget from
// optional JSON parameters.
type AccountantBuilder func(budget Params, params json.RawMessage) (Accountant, error)

var (
	acctMu       sync.RWMutex
	acctRegistry = map[string]AccountantBuilder{}
)

// RegisterAccountant adds an accountant kind to the registry. It fails on
// duplicate or empty names; safe for concurrent use.
func RegisterAccountant(name string, b AccountantBuilder) error {
	if name == "" || b == nil {
		return fmt.Errorf("mech: RegisterAccountant needs a name and a builder")
	}
	acctMu.Lock()
	defer acctMu.Unlock()
	if _, dup := acctRegistry[name]; dup {
		return fmt.Errorf("mech: accountant %q already registered", name)
	}
	acctRegistry[name] = b
	return nil
}

// AccountantNames returns the registered accountant names, sorted.
func AccountantNames() []string {
	acctMu.RLock()
	defer acctMu.RUnlock()
	out := make([]string, 0, len(acctRegistry))
	for k := range acctRegistry {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}

// NewAccountant constructs the named accountant over the given total
// budget; the empty name selects DefaultAccountant.
func NewAccountant(name string, budget Params, params json.RawMessage) (Accountant, error) {
	if name == "" {
		name = DefaultAccountant
	}
	acctMu.RLock()
	b, ok := acctRegistry[name]
	acctMu.RUnlock()
	if !ok {
		return nil, fmt.Errorf("%w %q (have %v)", ErrUnknownAccountant, name, AccountantNames())
	}
	if err := budget.Validate(); err != nil {
		return nil, err
	}
	a, err := b(budget, params)
	if err != nil {
		return nil, fmt.Errorf("mech: building accountant %q: %w", name, err)
	}
	return a, nil
}

// decodeAcctParams strictly decodes raw into v, treating empty params as
// the zero value; unknown fields are rejected so API typos surface.
func decodeAcctParams(raw json.RawMessage, v any) error {
	if len(raw) == 0 {
		return nil
	}
	dec := json.NewDecoder(bytes.NewReader(raw))
	dec.DisallowUnknownFields()
	return dec.Decode(v)
}

// acctBase carries the state every accountant shares: the budget, the
// reserved slice, and the spend counter, behind one mutex.
type acctBase struct {
	mu       sync.Mutex
	budget   Params
	reserved Params
	n        int
}

func (b *acctBase) Budget() Params { return b.budget }

func (b *acctBase) Count() int {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.n
}

// reserve is Reserve's shared implementation (called under b.mu).
func (b *acctBase) reserveLocked(p Params) error {
	if p.Eps < 0 || p.Delta < 0 || math.IsNaN(p.Eps) || math.IsNaN(p.Delta) {
		return fmt.Errorf("mech: invalid reservation %+v", p)
	}
	if b.reserved.Eps+p.Eps > b.budget.Eps || b.reserved.Delta+p.Delta > b.budget.Delta {
		return fmt.Errorf("mech: reservation (%v, %v) exceeds budget %+v", p.Eps, p.Delta, b.budget)
	}
	b.reserved.Eps += p.Eps
	b.reserved.Delta += p.Delta
	return nil
}

// slice returns the unreserved budget (called under b.mu or before sharing).
func (b *acctBase) sliceLocked() Params {
	return Params{Eps: b.budget.Eps - b.reserved.Eps, Delta: b.budget.Delta - b.reserved.Delta}
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
// arbitrary heterogeneous approximate-DP spends.
type basicAccountant struct {
	acctBase
	sumEps, sumDelta float64
}

func (a *basicAccountant) Name() string { return "basic" }

func (a *basicAccountant) Reserve(p Params) error {
	a.mu.Lock()
	defer a.mu.Unlock()
	return a.reserveLocked(p)
}

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
	a.sumEps += c.Eps
	a.sumDelta += c.Delta
	a.n++
	return nil
}

func (a *basicAccountant) Total() Params {
	a.mu.Lock()
	defer a.mu.Unlock()
	return Params{Eps: a.reserved.Eps + a.sumEps, Delta: a.reserved.Delta + a.sumDelta}
}

func (a *basicAccountant) Remaining() Params { return remainingOf(a.Budget(), a.Total()) }

func (a *basicAccountant) Export() AccountantState {
	a.mu.Lock()
	defer a.mu.Unlock()
	return AccountantState{
		Name:     "basic",
		Reserved: a.reserved,
		Count:    a.n,
		SumEps:   a.sumEps,
		SumDelta: a.sumDelta,
	}
}

func (a *basicAccountant) Restore(st AccountantState) error {
	if err := st.validate("basic"); err != nil {
		return err
	}
	a.mu.Lock()
	defer a.mu.Unlock()
	a.reserved = st.Reserved
	a.n = st.Count
	a.sumEps = st.SumEps
	a.sumDelta = st.SumDelta
	return nil
}

// ---------------------------------------------------------------------------
// advanced (DRV10, paper Theorem 3.10)

// advancedAccountant composes homogeneous spends under the strong
// composition theorem; heterogeneous spends are bounded by their maxima
// (Theorem 3.10 is stated for homogeneous compositions). Streaming state:
// only the spend count and the per-component maxima are kept.
type advancedAccountant struct {
	acctBase
	deltaPrime       float64 // composition slack δ′ used by Total
	maxEps, maxDelta float64
}

func (a *advancedAccountant) Name() string { return "advanced" }

func (a *advancedAccountant) Reserve(p Params) error {
	a.mu.Lock()
	defer a.mu.Unlock()
	return a.reserveLocked(p)
}

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
	if c.Eps > a.maxEps {
		a.maxEps = c.Eps
	}
	if c.Delta > a.maxDelta {
		a.maxDelta = c.Delta
	}
	a.n++
	return nil
}

func (a *advancedAccountant) Total() Params {
	a.mu.Lock()
	defer a.mu.Unlock()
	t := a.reserved
	if a.n == 0 {
		return t
	}
	adv, err := AdvancedComposition(a.maxEps, a.maxDelta, a.n, a.deltaPrime)
	if err != nil {
		// Fall back to the schedule's worst case: the whole unreserved slice.
		s := a.sliceLocked()
		t.Eps += s.Eps
		t.Delta += s.Delta
		return t
	}
	t.Eps += adv.Eps
	t.Delta += adv.Delta
	return t
}

func (a *advancedAccountant) Remaining() Params { return remainingOf(a.Budget(), a.Total()) }

func (a *advancedAccountant) Export() AccountantState {
	a.mu.Lock()
	defer a.mu.Unlock()
	return AccountantState{
		Name:       "advanced",
		Reserved:   a.reserved,
		Count:      a.n,
		MaxEps:     a.maxEps,
		MaxDelta:   a.maxDelta,
		DeltaPrime: a.deltaPrime,
	}
}

func (a *advancedAccountant) Restore(st AccountantState) error {
	if err := st.validate("advanced"); err != nil {
		return err
	}
	a.mu.Lock()
	defer a.mu.Unlock()
	// δ′ is fixed at construction; a mismatch means the snapshot was taken
	// under different accountant parameters, so Total would silently change
	// meaning. Refuse rather than adopt either value.
	if st.DeltaPrime != a.deltaPrime {
		return fmt.Errorf("mech: snapshot delta_prime %v != configured %v", st.DeltaPrime, a.deltaPrime)
	}
	a.reserved = st.Reserved
	a.n = st.Count
	a.maxEps = st.MaxEps
	a.maxDelta = st.MaxDelta
	return nil
}

// ---------------------------------------------------------------------------
// zcdp (Bun–Steinke 2016)

// zcdpAccountant composes in ρ: every spend that certifies a zCDP bound
// (Gaussian Rho, or pure-DP ε → ε²/2) adds its ρ, and Total converts the
// accumulated ρ to (ε, δ)-DP once, at the conversion δ — the whole
// unreserved δ slice, since exact zCDP mechanisms consume no δ themselves.
// Approximate-DP spends with no certificate (rho() == 0) cannot ride the ρ
// calculus; they fall into a linear side bucket composed basically.
type zcdpAccountant struct {
	acctBase
	rho                    float64 // accumulated zCDP parameter
	approxEps, approxDelta float64 // linear bucket for uncertified spends
}

func (a *zcdpAccountant) Name() string { return "zcdp" }

func (a *zcdpAccountant) Reserve(p Params) error {
	a.mu.Lock()
	defer a.mu.Unlock()
	return a.reserveLocked(p)
}

// convDelta is the δ dedicated to the single ρ→DP conversion (called under
// a.mu): the unreserved δ slice, halved when uncertified spends also need δ.
func (a *zcdpAccountant) convDeltaLocked() float64 {
	d := a.sliceLocked().Delta
	if a.approxDelta > 0 {
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
		a.rho += rho
	} else {
		a.approxEps += c.Eps
		a.approxDelta += c.Delta
	}
	a.n++
	return nil
}

func (a *zcdpAccountant) Total() Params {
	a.mu.Lock()
	defer a.mu.Unlock()
	t := Params{
		Eps:   a.reserved.Eps + a.approxEps,
		Delta: a.reserved.Delta + a.approxDelta,
	}
	if a.rho > 0 {
		conv := a.convDeltaLocked()
		dp, err := RhoToDP(a.rho, conv)
		if err != nil {
			// No usable conversion δ: report the loose pure-DP-style bound.
			dp = Params{Eps: a.rho + 2*math.Sqrt(a.rho*math.Log(1/a.budget.Delta))}
		}
		t.Eps += dp.Eps
		t.Delta += dp.Delta
	}
	return t
}

func (a *zcdpAccountant) Remaining() Params { return remainingOf(a.Budget(), a.Total()) }

func (a *zcdpAccountant) Export() AccountantState {
	a.mu.Lock()
	defer a.mu.Unlock()
	return AccountantState{
		Name:        "zcdp",
		Reserved:    a.reserved,
		Count:       a.n,
		Rho:         a.rho,
		ApproxEps:   a.approxEps,
		ApproxDelta: a.approxDelta,
	}
}

func (a *zcdpAccountant) Restore(st AccountantState) error {
	if err := st.validate("zcdp"); err != nil {
		return err
	}
	a.mu.Lock()
	defer a.mu.Unlock()
	a.reserved = st.Reserved
	a.n = st.Count
	a.rho = st.Rho
	a.approxEps = st.ApproxEps
	a.approxDelta = st.ApproxDelta
	return nil
}

// The built-in accountants. init registration cannot fail: the table above
// is empty and every name is distinct.
func init() {
	mustRegister := func(name string, b AccountantBuilder) {
		if err := RegisterAccountant(name, b); err != nil {
			panic(err)
		}
	}
	mustRegister("basic", func(budget Params, raw json.RawMessage) (Accountant, error) {
		var p struct{}
		if err := decodeAcctParams(raw, &p); err != nil {
			return nil, err
		}
		return &basicAccountant{acctBase: acctBase{budget: budget}}, nil
	})
	mustRegister("advanced", func(budget Params, raw json.RawMessage) (Accountant, error) {
		p := struct {
			// DeltaPrime is the composition slack δ′ of Theorem 3.10 used
			// when reporting totals; default δ/4, matching Theorem 3.9's
			// analysis of the oracle slice.
			DeltaPrime float64 `json:"delta_prime"`
		}{DeltaPrime: budget.Delta / 4}
		if err := decodeAcctParams(raw, &p); err != nil {
			return nil, err
		}
		if p.DeltaPrime <= 0 || p.DeltaPrime >= 1 {
			return nil, fmt.Errorf("delta_prime %v must be in (0, 1)", p.DeltaPrime)
		}
		return &advancedAccountant{acctBase: acctBase{budget: budget}, deltaPrime: p.DeltaPrime}, nil
	})
	mustRegister("zcdp", func(budget Params, raw json.RawMessage) (Accountant, error) {
		var p struct{}
		if err := decodeAcctParams(raw, &p); err != nil {
			return nil, err
		}
		if budget.Delta == 0 {
			return nil, fmt.Errorf("zcdp accounting requires delta > 0 (the ρ→DP conversion)")
		}
		return &zcdpAccountant{acctBase: acctBase{budget: budget}}, nil
	})
}
