package convex

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"sort"

	"repro/internal/universe"
)

// This file is the loss-kind table: the closed, certified list of CM-query
// families the server answers (paper §2.2 fixes the loss family in advance),
// each named by kind plus JSON-encoded parameters so callers outside the
// process (the serving subsystem, config files, test harnesses) need not
// hold a Loss value. Builders receive the (public) universe so they can
// certify feature and target bounds exactly, by enumeration — the same
// bounds the hand-constructed experiment losses use, but computed rather
// than assumed.
//
// Labeled-record convention (see losses.go): GLM-style kinds read a record
// as (features..., label) and optimize over Θ = the unit L2 ball in feature
// space; linear-query kinds are 1-dimensional with Θ = [0, 1].

// Spec names a loss kind with JSON-encoded parameters. The zero Params
// builds the kind's default instance.
type Spec struct {
	Kind   string          `json:"kind"`
	Params json.RawMessage `json:"params,omitempty"`
}

// kindRow is one row of the kind table. params strictly decodes raw JSON
// over the kind's default-initialized parameter struct and returns a
// pointer to it, so JSON key reordering and elided default fields collapse
// to one canonical form; build does the same decode and builds the loss
// under the given instance name.
type kindRow struct {
	params func(u universe.Universe, raw json.RawMessage) (any, error)
	build  func(u universe.Universe, raw json.RawMessage, name string) (Loss, error)
}

// kindOf makes the row of a kind whose parameters are a P. defaults
// returns P's default values over u (they may depend on the universe, e.g.
// a label-coordinate target); nil means P's zero value.
func kindOf[P any](defaults func(universe.Universe) P, build func(u universe.Universe, p *P, name string) (Loss, error)) kindRow {
	decode := func(u universe.Universe, raw json.RawMessage) (*P, error) {
		p := new(P)
		if defaults != nil {
			*p = defaults(u)
		}
		return p, decodeParams(raw, p)
	}
	return kindRow{
		params: func(u universe.Universe, raw json.RawMessage) (any, error) { return decode(u, raw) },
		build: func(u universe.Universe, raw json.RawMessage, name string) (Loss, error) {
			p, err := decode(u, raw)
			if err != nil {
				return nil, err
			}
			return build(u, p, name)
		},
	}
}

// Kinds returns the kind names, sorted.
func Kinds() []string {
	out := make([]string, 0, len(kindTable))
	for k := range kindTable {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}

func lookup(kind string) (kindRow, error) {
	r, ok := kindTable[kind]
	if !ok {
		return r, fmt.Errorf("convex: unknown loss kind %q (have %v)", kind, Kinds())
	}
	return r, nil
}

// Build constructs the loss named by spec over u.
func Build(u universe.Universe, spec Spec) (Loss, error) {
	r, err := lookup(spec.Kind)
	if err != nil {
		return nil, err
	}
	l, err := r.build(u, spec.Params, shortName(spec.Kind, spec.Params))
	if err != nil {
		return nil, fmt.Errorf("convex: building %q: %w", spec.Kind, err)
	}
	return l, nil
}

// CanonicalKey maps spec to its canonical cache key: a JSON array
// [kind, params] where params is the kind's parameter struct — defaults
// applied, raw JSON decoded over them, re-marshaled in fixed field order.
// Two specs naming the same loss instance (JSON key reordering, explicit
// default values vs. elided fields) map to the same key; specs with
// distinct parameter values never collide, because the struct marshal is
// injective on parameter values. The key never touches private data — it
// is a pure function of the public spec — so it is safe to record in
// transcripts and serve as a cache index.
func CanonicalKey(u universe.Universe, spec Spec) (string, error) {
	r, err := lookup(spec.Kind)
	if err != nil {
		return "", err
	}
	p, err := r.params(u, spec.Params)
	if err != nil {
		return "", fmt.Errorf("convex: canonicalizing %q: %w", spec.Kind, err)
	}
	key, err := json.Marshal([2]any{spec.Kind, p})
	if err != nil {
		return "", fmt.Errorf("convex: canonicalizing %q: %w", spec.Kind, err)
	}
	return string(key), nil
}

// decodeParams strictly decodes raw into v, treating empty params as the
// zero value. Unknown fields are rejected so API typos surface as errors
// instead of silently building a default instance.
func decodeParams(raw json.RawMessage, v any) error {
	if len(raw) == 0 {
		return nil
	}
	dec := json.NewDecoder(bytes.NewReader(raw))
	dec.DisallowUnknownFields()
	return dec.Decode(v)
}

// featureDim returns u.Dim()−1 for labeled-record losses, rejecting
// universes too small to carry a label coordinate.
func featureDim(u universe.Universe) (int, error) {
	d := u.Dim() - 1
	if d < 1 {
		return 0, fmt.Errorf("labeled-record loss needs universe dim ≥ 2, got %d", u.Dim())
	}
	return d, nil
}

// featureBound returns the exact max over the universe of ‖x[:d]‖₂. Past
// the dense-enumeration limit, factored universes compute it coordinate by
// coordinate: coordinates vary independently in a product universe, so the
// max of the separable sum Σ x[j]² is the sum of per-coordinate maxima —
// the same terms, added in the same order, as enumerating a point that
// attains every per-coordinate maximum simultaneously.
func featureBound(u universe.Universe, d int) float64 {
	if f, ok := u.(universe.Factored); ok && u.Size() > universe.DenseLimit {
		var n2 float64
		for j := 0; j < d; j++ {
			var worst float64
			for lv := 0; lv < f.Levels(j); lv++ {
				v := f.CoordValue(j, lv)
				if v*v > worst {
					worst = v * v
				}
			}
			n2 += worst
		}
		return math.Sqrt(n2)
	}
	var worst float64
	buf := make([]float64, u.Dim())
	for i := 0; i < u.Size(); i++ {
		p := u.PointInto(i, buf)
		var n2 float64
		for j := 0; j < d; j++ {
			n2 += p[j] * p[j]
		}
		if n2 > worst {
			worst = n2
		}
	}
	return math.Sqrt(worst)
}

// dotBound returns the exact max over the universe of |⟨v, x⟩|. Past the
// dense-enumeration limit, factored universes again decompose per
// coordinate: max⟨v, x⟩ and min⟨v, x⟩ are each sums of per-coordinate
// extrema of v[j]·x[j], and the bound is the larger of max and −min
// (negation of an IEEE sum is exact, so this matches what enumerating the
// extremal points would produce bit for bit).
func dotBound(u universe.Universe, v []float64) float64 {
	if f, ok := u.(universe.Factored); ok && u.Size() > universe.DenseLimit {
		var hiSum, loSum float64
		for j := range v {
			hiTerm, loTerm := math.Inf(-1), math.Inf(1)
			for lv := 0; lv < f.Levels(j); lv++ {
				t := v[j] * f.CoordValue(j, lv)
				if t > hiTerm {
					hiTerm = t
				}
				if t < loTerm {
					loTerm = t
				}
			}
			hiSum += hiTerm
			loSum += loTerm
		}
		return math.Max(hiSum, -loSum)
	}
	var worst float64
	buf := make([]float64, u.Dim())
	for i := 0; i < u.Size(); i++ {
		p := u.PointInto(i, buf)
		var dot float64
		for j := range v {
			dot += v[j] * p[j]
		}
		if a := math.Abs(dot); a > worst {
			worst = a
		}
	}
	return worst
}

// featBall returns the unit L2 ball over feature space together with the
// universe's certified feature bound.
func featBall(u universe.Universe) (*L2Ball, float64, error) {
	d, err := featureDim(u)
	if err != nil {
		return nil, 0, err
	}
	ball, err := NewL2Ball(d, 1)
	if err != nil {
		return nil, 0, err
	}
	fb := featureBound(u, d)
	if fb == 0 {
		return nil, 0, fmt.Errorf("universe features are identically zero")
	}
	return ball, fb, nil
}

// shortName renders a compact instance name kind{params} for transcripts.
func shortName(kind string, raw json.RawMessage) string {
	if len(raw) == 0 {
		return kind
	}
	s := string(raw)
	if len(s) > 48 {
		s = s[:45] + "..."
	}
	return kind + s
}

// checkCoords validates 0 ≤ c < dim for every coordinate index.
func checkCoords(coords []int, dim int) error {
	if len(coords) == 0 {
		return fmt.Errorf("needs at least one coordinate")
	}
	for _, c := range coords {
		if c < 0 || c >= dim {
			return fmt.Errorf("coordinate %d outside universe dim %d", c, dim)
		}
	}
	return nil
}

// Parameter structs of the built-in kinds. Field order is part of the
// canonical key (CanonicalKey marshals these structs), so reordering
// fields is a cache-key change.

type squaredParams struct {
	Target []float64 `json:"target"`
}

type logisticParams struct {
	Margin float64 `json:"margin"`
	Temp   float64 `json:"temp"`
}

type hingeParams struct {
	Width float64 `json:"width"`
}

type huberParams struct {
	Delta float64 `json:"delta"`
}

type pinballParams struct {
	Tau    float64 `json:"tau"`
	Smooth float64 `json:"smooth"`
}

type linearParams struct {
	V []float64 `json:"v"`
}

type halfspaceParams struct {
	W         []float64 `json:"w"`
	Threshold float64   `json:"threshold"`
}

type marginalParams struct {
	Coords []int `json:"coords"`
	Signs  []int `json:"signs"`
}

type parityParams struct {
	Coords []int `json:"coords"`
}

type positiveParams struct {
	Coord int `json:"coord"`
}

// kindTable is the closed set of kinds. It is never written after package
// initialization, so lookups need no lock.
var kindTable = map[string]kindRow{
	// squared: least-squares regression of the attribute ⟨target, x⟩ from
	// the features. Default target is the label coordinate.
	"squared": kindOf(func(u universe.Universe) squaredParams {
		t := make([]float64, u.Dim())
		if u.Dim() > 0 {
			t[u.Dim()-1] = 1
		}
		return squaredParams{Target: t}
	}, func(u universe.Universe, p *squaredParams, name string) (Loss, error) {
		ball, fb, err := featBall(u)
		if err != nil {
			return nil, err
		}
		if p.Target == nil {
			// An explicit {"target": null} nulls out the pre-filled
			// default slice; re-apply the label-coordinate default.
			p.Target = make([]float64, u.Dim())
			p.Target[u.Dim()-1] = 1
		}
		if len(p.Target) != u.Dim() {
			return nil, fmt.Errorf("target has dim %d, universe dim is %d", len(p.Target), u.Dim())
		}
		tb := dotBound(u, p.Target)
		if tb == 0 {
			tb = 1 // degenerate target; any positive bound is valid
		}
		return NewSquared(name, ball, p.Target, fb, tb)
	}),

	// logistic: margin classification of the label sign.
	"logistic": kindOf(func(universe.Universe) logisticParams { return logisticParams{Temp: 0.5} },
		func(u universe.Universe, p *logisticParams, name string) (Loss, error) {
			ball, fb, err := featBall(u)
			if err != nil {
				return nil, err
			}
			return NewLogistic(name, ball, p.Margin, p.Temp, fb)
		}),

	// hinge: smoothed SVM on the label sign.
	"hinge": kindOf(func(universe.Universe) hingeParams { return hingeParams{Width: 1} },
		func(u universe.Universe, p *hingeParams, name string) (Loss, error) {
			ball, fb, err := featBall(u)
			if err != nil {
				return nil, err
			}
			return NewSmoothedHinge(name, ball, p.Width, fb)
		}),

	// huber: robust regression of the label.
	"huber": kindOf(func(universe.Universe) huberParams { return huberParams{Delta: 0.5} },
		func(u universe.Universe, p *huberParams, name string) (Loss, error) {
			ball, fb, err := featBall(u)
			if err != nil {
				return nil, err
			}
			return NewHuber(name, ball, p.Delta, fb)
		}),

	// pinball: smoothed quantile regression of the label.
	"pinball": kindOf(func(universe.Universe) pinballParams { return pinballParams{Tau: 0.5, Smooth: 0.1} },
		func(u universe.Universe, p *pinballParams, name string) (Loss, error) {
			ball, fb, err := featBall(u)
			if err != nil {
				return nil, err
			}
			return NewPinball(name, ball, p.Tau, p.Smooth, fb)
		}),

	// linear: the affine loss with direction v over the full record (exact
	// minimizer known in closed form — useful as a ground-truth probe).
	"linear": kindOf(nil, func(u universe.Universe, p *linearParams, name string) (Loss, error) {
		ball, _, err := featBall(u)
		if err != nil {
			return nil, err
		}
		if len(p.V) != u.Dim() {
			return nil, fmt.Errorf("v has dim %d, universe dim is %d", len(p.V), u.Dim())
		}
		fullBound := featureBound(u, u.Dim())
		if fullBound == 0 {
			return nil, fmt.Errorf("universe points are identically zero")
		}
		return NewLinearForm(name, ball, p.V, fullBound)
	}),

	// halfspace: the counting query q(x) = 1{⟨w, x⟩ ≥ threshold}.
	"halfspace": kindOf(nil, func(u universe.Universe, p *halfspaceParams, name string) (Loss, error) {
		if len(p.W) != u.Dim() {
			return nil, fmt.Errorf("w has dim %d, universe dim is %d", len(p.W), u.Dim())
		}
		w := append([]float64(nil), p.W...)
		t := p.Threshold
		q, err := NewLinearQuery(name, func(x []float64) float64 {
			var s float64
			for j := range w {
				s += w[j] * x[j]
			}
			if s >= t {
				return 1
			}
			return 0
		})
		if err != nil {
			return nil, err
		}
		// Zero-weight coordinates contribute nothing to ⟨w, x⟩, so the
		// predicate's support is exactly the nonzero entries of w.
		supp := make([]int, 0, len(w))
		for j, wj := range w {
			if wj != 0 {
				supp = append(supp, j)
			}
		}
		return q.WithSupport(supp), nil
	}),

	// marginal: conjunction over sign-encoded coordinates; signs[i] gives
	// the required sign (+1/−1) of coordinate coords[i] (default all +1).
	"marginal": kindOf(nil, func(u universe.Universe, p *marginalParams, name string) (Loss, error) {
		if err := checkCoords(p.Coords, u.Dim()); err != nil {
			return nil, err
		}
		signs := p.Signs
		if signs == nil {
			signs = make([]int, len(p.Coords))
			for i := range signs {
				signs[i] = 1
			}
		}
		signs = append([]int(nil), signs...)
		if len(signs) != len(p.Coords) {
			return nil, fmt.Errorf("signs has %d entries, coords %d", len(signs), len(p.Coords))
		}
		coords := append([]int(nil), p.Coords...)
		q, err := NewLinearQuery(name, func(x []float64) float64 {
			for i, c := range coords {
				if (x[c] > 0) != (signs[i] > 0) {
					return 0
				}
			}
			return 1
		})
		if err != nil {
			return nil, err
		}
		return q.WithSupport(coords), nil
	}),

	// parity: q(x) = 1 iff an even number of the named coordinates is
	// negative.
	"parity": kindOf(nil, func(u universe.Universe, p *parityParams, name string) (Loss, error) {
		if err := checkCoords(p.Coords, u.Dim()); err != nil {
			return nil, err
		}
		coords := append([]int(nil), p.Coords...)
		q, err := NewLinearQuery(name, func(x []float64) float64 {
			neg := false
			for _, c := range coords {
				if x[c] < 0 {
					neg = !neg
				}
			}
			if neg {
				return 0
			}
			return 1
		})
		if err != nil {
			return nil, err
		}
		return q.WithSupport(coords), nil
	}),

	// positive: the one-coordinate counting query q(x) = 1{x[coord] > 0}.
	"positive": kindOf(nil, func(u universe.Universe, p *positiveParams, name string) (Loss, error) {
		if p.Coord < 0 || p.Coord >= u.Dim() {
			return nil, fmt.Errorf("coord %d outside universe dim %d", p.Coord, u.Dim())
		}
		c := p.Coord
		q, err := NewLinearQuery(name, func(x []float64) float64 {
			if x[c] > 0 {
				return 1
			}
			return 0
		})
		if err != nil {
			return nil, err
		}
		return q.WithSupport([]int{c}), nil
	}),
}
