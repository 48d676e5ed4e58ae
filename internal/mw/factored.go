package mw

import (
	"errors"
	"fmt"
	"math"
	"sort"

	"repro/internal/histogram"
	"repro/internal/sample"
	"repro/internal/universe"
	"repro/internal/vecmath"
)

// FactoredState is the multiplicative-weights hypothesis in product form,
// for universes too large to materialize (universe.Factored past the dense
// limit). It relies on an exact structural fact: the hypothesis starts as
// the product of independent uniform coordinates, and an update whose
// penalty reads only a few coordinates multiplies the weights by a factor
// depending on those coordinates alone — so after any sequence of
// junta-supported updates the hypothesis is still a product of independent
// distributions over disjoint coordinate groups ("components"), each small
// enough to store explicitly. Every marginal, expectation, and sample the
// algorithm needs then reduces to sums over component tables, with cost
// independent of |X|.
//
// The represented distribution is mathematically identical to what the
// dense State would compute from the same updates (softmax factorizes over
// components), which the cross-engine equivalence tests pin down to 1e-12.
// Not safe for concurrent use.
type FactoredState struct {
	f         universe.Factored
	eta       float64
	s         float64
	updates   int
	comps     []*component
	coordComp []int // coordinate → index into comps, −1 while untouched
}

// component is one junta block: a set of coordinates whose joint
// log-weight table is materialized. Coordinates are sorted ascending and
// the table is indexed in mixed radix with coords[0] fastest-varying
// (universe.SupportLevelsInto convention).
type component struct {
	coords []int
	logW   []float64
}

// MaxComponentCells caps one component's materialized table. Updates whose
// supports would chain components past the cap fail with
// ErrComponentTooLarge rather than exhausting memory: the factored
// representation only pays off while query supports stay small and mostly
// disjoint.
const MaxComponentCells = 1 << 20

// ErrComponentTooLarge reports that an update would merge junta components
// into a table larger than MaxComponentCells. Callers should fall back to
// the dense engine (if the universe permits) or reject the query.
var ErrComponentTooLarge = errors.New("mw: junta component too large")

// NewFactored starts a product-form hypothesis at the uniform histogram
// over f with learning rate eta and update-vector scale bound s.
func NewFactored(f universe.Factored, eta, s float64) (*FactoredState, error) {
	if eta <= 0 || math.IsNaN(eta) || math.IsInf(eta, 0) {
		return nil, fmt.Errorf("mw: eta %v must be positive and finite", eta)
	}
	if s <= 0 || math.IsNaN(s) || math.IsInf(s, 0) {
		return nil, fmt.Errorf("mw: scale %v must be positive and finite", s)
	}
	cc := make([]int, f.Dim())
	for i := range cc {
		cc[i] = -1
	}
	return &FactoredState{f: f, eta: eta, s: s, coordComp: cc}, nil
}

// Eta returns the learning rate in use.
func (st *FactoredState) Eta() float64 { return st.eta }

// Scale returns the update-vector scale bound S.
func (st *FactoredState) Scale() float64 { return st.s }

// Updates returns the number of updates applied so far.
func (st *FactoredState) Updates() int { return st.updates }

// checkCoords validates a support coordinate list against the universe.
func (st *FactoredState) checkCoords(coords []int) error {
	dim := st.f.Dim()
	seen := make(map[int]bool, len(coords))
	for _, c := range coords {
		if c < 0 || c >= dim {
			return fmt.Errorf("mw: support coordinate %d outside [0,%d)", c, dim)
		}
		if seen[c] {
			return fmt.Errorf("mw: duplicate support coordinate %d", c)
		}
		seen[c] = true
	}
	return nil
}

// Update applies one multiplicative-weights step whose penalty reads only
// the given coordinates: u is indexed over their joint level assignments
// in universe.SupportLevelsInto convention (coords[0] fastest-varying,
// matching the enumeration order of universe.SupportUniverse(f, coords)).
// Entries must satisfy |u| ≤ S, as in the dense State.
//
// Components overlapping coords are merged first; if the merged table
// would exceed MaxComponentCells the update fails with an error wrapping
// ErrComponentTooLarge and the hypothesis is left untouched.
func (st *FactoredState) Update(coords []int, u []float64) error {
	if err := st.checkCoords(coords); err != nil {
		return err
	}
	want := 1
	for _, c := range coords {
		want *= st.f.Levels(c)
	}
	if len(u) != want {
		return fmt.Errorf("mw: update length %d != support cube size %d", len(u), want)
	}
	const slack = 1e-9
	for i, v := range u {
		if math.IsNaN(v) || math.Abs(v) > st.s+slack {
			return fmt.Errorf("mw: update entry %d = %v outside [−S, S], S = %v", i, v, st.s)
		}
	}

	// Collect the components the support touches and the merged coordinate
	// set (union of their coordinates and the support's), sorted ascending.
	touched := map[int]bool{}
	coordSet := map[int]bool{}
	for _, c := range coords {
		coordSet[c] = true
		if ci := st.coordComp[c]; ci >= 0 {
			touched[ci] = true
		}
	}
	for ci := range touched {
		for _, c := range st.comps[ci].coords {
			coordSet[c] = true
		}
	}
	merged := make([]int, 0, len(coordSet))
	for c := range coordSet {
		merged = append(merged, c)
	}
	sort.Ints(merged)
	size := 1
	for _, c := range merged {
		size *= st.f.Levels(c)
		if size > MaxComponentCells {
			return fmt.Errorf("mw: update support %v chains components to %d coordinates (> %d cells): %w",
				coords, len(merged), MaxComponentCells, ErrComponentTooLarge)
		}
	}

	// Build the merged table: old components embed additively (the product
	// of their weight tables is the exponential of the sum of their logs),
	// then the penalty is applied and the table re-centered. Re-centering
	// per component is the factored form of the dense State's global
	// re-center: softmax is shift-invariant within a component.
	logW := make([]float64, size)
	pos := make(map[int]int, len(merged))
	for p, c := range merged {
		pos[c] = p
	}
	levels := make([]int, len(merged))
	for ci, old := range st.comps {
		if !touched[ci] {
			continue // iterate in slice order: embedding order is part of the bits
		}
		for cell := 0; cell < size; cell++ {
			universe.SupportLevelsInto(st.f, merged, cell, levels)
			idx := 0
			stride := 1
			for _, c := range old.coords {
				idx += levels[pos[c]] * stride
				stride *= st.f.Levels(c)
			}
			logW[cell] += old.logW[idx]
		}
	}
	m := math.Inf(-1)
	for cell := 0; cell < size; cell++ {
		universe.SupportLevelsInto(st.f, merged, cell, levels)
		idx := 0
		stride := 1
		for _, c := range coords {
			idx += levels[pos[c]] * stride
			stride *= st.f.Levels(c)
		}
		logW[cell] -= st.eta * u[idx]
		if logW[cell] > m {
			m = logW[cell]
		}
	}
	vecmath.AddConst(logW, -m)

	// Commit: drop merged-away components, append the new one, remap.
	if len(touched) > 0 {
		kept := st.comps[:0]
		for ci, c := range st.comps {
			if !touched[ci] {
				kept = append(kept, c)
			}
		}
		st.comps = kept
	}
	st.comps = append(st.comps, &component{coords: merged, logW: logW})
	for ci, c := range st.comps {
		for _, coord := range c.coords {
			st.coordComp[coord] = ci
		}
	}
	st.updates++
	return nil
}

// probs materializes one component's probability table (softmax of its
// log weights).
func (c *component) probs() []float64 {
	p := make([]float64, len(c.logW))
	vecmath.Softmax(p, c.logW)
	return p
}

// marginalOn returns the component's joint marginal over the listed
// positions of coords (incl indexes into coords), as a table in mixed
// radix over those coordinates in incl order.
func (st *FactoredState) marginalOn(c *component, coords []int, incl []int) []float64 {
	n := 1
	for _, p := range incl {
		n *= st.f.Levels(coords[p])
	}
	marg := make([]float64, n)
	probs := c.probs()
	pos := make(map[int]int, len(c.coords))
	for p, coord := range c.coords {
		pos[coord] = p
	}
	levels := make([]int, len(c.coords))
	for cell, pr := range probs {
		universe.SupportLevelsInto(st.f, c.coords, cell, levels)
		idx := 0
		stride := 1
		for _, p := range incl {
			coord := coords[p]
			idx += levels[pos[coord]] * stride
			stride *= st.f.Levels(coord)
		}
		marg[idx] += pr
	}
	return marg
}

// SupportHistogram returns the hypothesis's exact marginal distribution
// over the sub-cube spanned by coords, as a histogram over
// universe.SupportUniverse(f, coords) — ready for the unchanged dense
// minimization and evaluation machinery. Cost is the sub-cube size times
// the touched component tables; the full universe is never enumerated.
func (st *FactoredState) SupportHistogram(coords []int) (*histogram.Histogram, error) {
	sub, err := universe.SupportUniverse(st.f, coords)
	if err != nil {
		return nil, err
	}
	n := sub.Size()

	// Group the support coordinates by owning component; coordinates no
	// update ever touched contribute an exact uniform factor.
	free := 1.0
	byComp := map[int][]int{}
	for p, c := range coords {
		if ci := st.coordComp[c]; ci >= 0 {
			byComp[ci] = append(byComp[ci], p)
		} else {
			free /= float64(st.f.Levels(c))
		}
	}
	type group struct {
		incl []int
		marg []float64
	}
	cis := make([]int, 0, len(byComp))
	for ci := range byComp {
		cis = append(cis, ci)
	}
	sort.Ints(cis) // fixed group order: the product's rounding is part of the result
	groups := make([]group, 0, len(cis))
	for _, ci := range cis {
		incl := byComp[ci]
		groups = append(groups, group{incl: incl, marg: st.marginalOn(st.comps[ci], coords, incl)})
	}

	p := make([]float64, n)
	levels := make([]int, len(coords))
	for i := 0; i < n; i++ {
		universe.SupportLevelsInto(st.f, coords, i, levels)
		v := free
		for _, g := range groups {
			idx := 0
			stride := 1
			for _, pp := range g.incl {
				idx += levels[pp] * stride
				stride *= st.f.Levels(coords[pp])
			}
			v *= g.marg[idx]
		}
		p[i] = v
	}
	return &histogram.Histogram{U: sub, P: p}, nil
}

// SampleRows draws n independent rows (universe element indices) from the
// hypothesis: each component samples its joint cell from its probability
// table, untouched coordinates sample uniform levels. Draw order is fixed
// (components in table order, then free coordinates ascending), so results
// are deterministic given the source.
func (st *FactoredState) SampleRows(src *sample.Source, n int) []int {
	dim := st.f.Dim()
	tables := make([][]float64, len(st.comps))
	for i, c := range st.comps {
		tables[i] = c.probs()
	}
	rows := make([]int, n)
	digits := make([]int, dim)
	levels := make([]int, dim)
	for r := range rows {
		for j := range digits {
			digits[j] = -1
		}
		for i, c := range st.comps {
			cell := src.Categorical(tables[i])
			universe.SupportLevelsInto(st.f, c.coords, cell, levels)
			for k, coord := range c.coords {
				digits[coord] = levels[k]
			}
		}
		for j := 0; j < dim; j++ {
			if digits[j] < 0 {
				digits[j] = src.Intn(st.f.Levels(j))
			}
		}
		rows[r] = universe.ComposeIndex(st.f, digits)
	}
	return rows
}

// Histogram materializes the full hypothesis densely — only meaningful for
// universes within the dense-enumeration limit. The cross-engine
// equivalence tests use it to compare against the dense State.
func (st *FactoredState) Histogram() (*histogram.Histogram, error) {
	if err := universe.EnsureDense(st.f); err != nil {
		return nil, err
	}
	n := st.f.Size()
	free := 1.0
	for j := 0; j < st.f.Dim(); j++ {
		if st.coordComp[j] < 0 {
			free /= float64(st.f.Levels(j))
		}
	}
	tables := make([][]float64, len(st.comps))
	for i, c := range st.comps {
		tables[i] = c.probs()
	}
	p := make([]float64, n)
	buf := make([]int, st.f.Dim())
	for i := 0; i < n; i++ {
		v := free
		for ci, c := range st.comps {
			v *= tables[ci][universe.ProjectIndex(st.f, c.coords, i, buf)]
		}
		p[i] = v
	}
	return &histogram.Histogram{U: st.f, P: p}, nil
}

// FactoredComponent is the serialized form of one junta component.
type FactoredComponent struct {
	Coords []int     `json:"coords"`
	LogW   []float64 `json:"logw"`
}

// FactoredExport is a serializable snapshot of a FactoredState, the
// product-form counterpart of Export. Together with the universe it
// determines the hypothesis exactly.
type FactoredExport struct {
	Eta     float64             `json:"eta"`
	Scale   float64             `json:"scale"`
	Updates int                 `json:"updates"`
	Comps   []FactoredComponent `json:"comps,omitempty"`
}

// Export snapshots the state. All tables are copied.
func (st *FactoredState) Export() FactoredExport {
	ex := FactoredExport{Eta: st.eta, Scale: st.s, Updates: st.updates}
	for _, c := range st.comps {
		ex.Comps = append(ex.Comps, FactoredComponent{
			Coords: append([]int(nil), c.coords...),
			LogW:   append([]float64(nil), c.logW...),
		})
	}
	return ex
}

// FactoredFromExport reconstructs a FactoredState over f from a snapshot.
func FactoredFromExport(f universe.Factored, ex FactoredExport) (*FactoredState, error) {
	st, err := NewFactored(f, ex.Eta, ex.Scale)
	if err != nil {
		return nil, err
	}
	if ex.Updates < 0 {
		return nil, fmt.Errorf("mw: snapshot update count %d is negative", ex.Updates)
	}
	for _, c := range ex.Comps {
		if err := st.checkCoords(c.Coords); err != nil {
			return nil, fmt.Errorf("mw: snapshot component: %w", err)
		}
		if !sort.IntsAreSorted(c.Coords) {
			return nil, fmt.Errorf("mw: snapshot component coords %v not sorted", c.Coords)
		}
		want := 1
		for _, coord := range c.Coords {
			want *= f.Levels(coord)
			if want > MaxComponentCells {
				return nil, fmt.Errorf("mw: snapshot component %v: %w", c.Coords, ErrComponentTooLarge)
			}
		}
		if len(c.LogW) != want {
			return nil, fmt.Errorf("mw: snapshot component %v table length %d != %d", c.Coords, len(c.LogW), want)
		}
		for i, v := range c.LogW {
			if math.IsNaN(v) || math.IsInf(v, 0) {
				return nil, fmt.Errorf("mw: snapshot log weight %d = %v is not finite", i, v)
			}
		}
		for _, coord := range c.Coords {
			if st.coordComp[coord] >= 0 {
				return nil, fmt.Errorf("mw: snapshot components overlap at coordinate %d", coord)
			}
			st.coordComp[coord] = len(st.comps)
		}
		st.comps = append(st.comps, &component{
			coords: append([]int(nil), c.Coords...),
			logW:   append([]float64(nil), c.LogW...),
		})
	}
	st.updates = ex.Updates
	return st, nil
}
