package convex

import (
	"encoding/json"
	"strings"
	"testing"
)

// Every registered kind must build its default instance and certify a
// positive, finite Lipschitz bound with a non-trivial domain.
func TestRegistryBuildsDefaults(t *testing.T) {
	g := testGrid(t)
	kinds := Kinds()
	if len(kinds) < 8 {
		t.Fatalf("registry has %d kinds, want ≥ 8: %v", len(kinds), kinds)
	}
	// Kinds whose defaults need explicit parameters.
	params := map[string]string{
		"halfspace": `{"w":[1,0,0]}`,
		"linear":    `{"v":[0,0,1]}`,
		"marginal":  `{"coords":[0]}`,
		"parity":    `{"coords":[0,1]}`,
	}
	for _, kind := range kinds {
		spec := Spec{Kind: kind}
		if p, ok := params[kind]; ok {
			spec.Params = json.RawMessage(p)
		}
		l, err := Build(g, spec)
		if err != nil {
			t.Fatalf("Build(%q): %v", kind, err)
		}
		if l.Lipschitz() <= 0 {
			t.Errorf("%s: Lipschitz %v not positive", kind, l.Lipschitz())
		}
		if l.Domain().Dim() < 1 {
			t.Errorf("%s: empty domain", kind)
		}
		if !strings.HasPrefix(l.Name(), kind) {
			t.Errorf("%s: instance name %q does not carry the kind", kind, l.Name())
		}
		// The serving default S = 2 must cover every registered family.
		if s := ScaleBound(l); s > 2+1e-9 {
			t.Errorf("%s: scale bound %v exceeds the serving default S = 2", kind, s)
		}
	}
}

func TestRegistryRejectsUnknownKind(t *testing.T) {
	if _, err := Build(testGrid(t), Spec{Kind: "nope"}); err == nil {
		t.Fatal("unknown kind built successfully")
	}
}

func TestRegistryRejectsUnknownField(t *testing.T) {
	_, err := Build(testGrid(t), Spec{Kind: "logistic", Params: json.RawMessage(`{"tempp": 0.5}`)})
	if err == nil {
		t.Fatal("typo'd parameter field accepted")
	}
}

func TestRegistryValidatesDimensions(t *testing.T) {
	g := testGrid(t)
	cases := []Spec{
		{Kind: "halfspace", Params: json.RawMessage(`{"w":[1,0]}`)},       // dim 2 ≠ 3
		{Kind: "linear", Params: json.RawMessage(`{"v":[1]}`)},            // dim 1 ≠ 3
		{Kind: "squared", Params: json.RawMessage(`{"target":[1]}`)},      // dim 1 ≠ 3
		{Kind: "marginal", Params: json.RawMessage(`{"coords":[7]}`)},     // coord ≥ dim
		{Kind: "marginal", Params: json.RawMessage(`{"coords":[]}`)},      // empty
		{Kind: "positive", Params: json.RawMessage(`{"coord":-1}`)},       // negative
		{Kind: "parity", Params: json.RawMessage(`{"coords":[0,1,2,9]}`)}, // coord ≥ dim
	}
	for _, spec := range cases {
		if _, err := Build(g, spec); err == nil {
			t.Errorf("Build(%s %s) accepted invalid params", spec.Kind, spec.Params)
		}
	}
}

// The registry's enumerated bounds must be genuine: gradient norms over the
// universe may not exceed the certified Lipschitz constant.
func TestRegistryCertifiesBounds(t *testing.T) {
	g := testGrid(t)
	for _, kind := range []string{"squared", "logistic", "hinge", "huber", "pinball"} {
		l, err := Build(g, Spec{Kind: kind})
		if err != nil {
			t.Fatalf("Build(%q): %v", kind, err)
		}
		probes := [][]float64{l.Domain().Center(), {0.7, -0.7}, {1, 0}, {0, -1}}
		if got, want := CertifyLipschitz(nil, l, g, probes), l.Lipschitz(); got > want+1e-9 {
			t.Errorf("%s: observed gradient norm %v exceeds certified %v", kind, got, want)
		}
	}
}

// Linear-query kinds must produce predicates with the advertised semantics.
func TestRegistryLinearQuerySemantics(t *testing.T) {
	g := testGrid(t)
	l, err := Build(g, Spec{Kind: "positive", Params: json.RawMessage(`{"coord":0}`)})
	if err != nil {
		t.Fatal(err)
	}
	lq, ok := l.(*LinearQuery)
	if !ok {
		t.Fatalf("positive built %T, want *LinearQuery", l)
	}
	for i := 0; i < g.Size(); i++ {
		x := g.Point(i)
		want := 0.0
		if x[0] > 0 {
			want = 1
		}
		if got := lq.Predicate(x); got != want {
			t.Fatalf("positive(x=%v) = %v, want %v", x, got, want)
		}
	}
}
