package convex

import (
	"encoding/json"
	"fmt"
	"math/rand"
	"strings"
	"testing"

	"repro/internal/universe"
)

// canonGrid is the canonicalization fixture universe: 2 features + label.
func canonGrid(t testing.TB) universe.Universe {
	t.Helper()
	g, err := universe.NewLabeledGrid(2, 3, 1.0, 3, 1.0)
	if err != nil {
		t.Fatal(err)
	}
	return g
}

func key(t testing.TB, u universe.Universe, kind, params string) string {
	t.Helper()
	spec := Spec{Kind: kind}
	if params != "" {
		spec.Params = json.RawMessage(params)
	}
	k, err := CanonicalKey(u, spec)
	if err != nil {
		t.Fatalf("CanonicalKey(%s %s): %v", kind, params, err)
	}
	return k
}

// TestCanonicalKeyEquivalences pins the cache-key contract: JSON key
// reordering and explicit-default-vs-elided fields map to the same key;
// distinct parameter values never collide; distinct kinds never collide.
func TestCanonicalKeyEquivalences(t *testing.T) {
	g := canonGrid(t)
	cases := []struct {
		kind string
		same []string // all must share one canonical key
		diff []string // each must differ from the same-group key
	}{
		{
			kind: "logistic",
			same: []string{"", `{}`, `{"temp":0.5}`, `{"margin":0}`, `{"margin":0,"temp":0.5}`, `{"temp":0.5,"margin":0}`},
			diff: []string{`{"temp":0.6}`, `{"margin":0.1}`, `{"margin":0.1,"temp":0.6}`},
		},
		{
			kind: "squared",
			same: []string{"", `{"target":[0,0,1]}`},
			diff: []string{`{"target":[0,1,0]}`, `{"target":[0,0,0.5]}`},
		},
		{
			kind: "hinge",
			same: []string{"", `{"width":1}`},
			diff: []string{`{"width":2}`},
		},
		{
			kind: "huber",
			same: []string{"", `{"delta":0.5}`},
			diff: []string{`{"delta":0.25}`},
		},
		{
			kind: "pinball",
			same: []string{"", `{"tau":0.5,"smooth":0.1}`, `{"smooth":0.1,"tau":0.5}`, `{"smooth":0.1}`},
			diff: []string{`{"tau":0.9}`, `{"smooth":0.2}`},
		},
		{
			kind: "halfspace",
			same: []string{`{"w":[1,0,0],"threshold":0.5}`, `{"threshold":0.5,"w":[1,0,0]}`},
			diff: []string{`{"w":[1,0,0]}`, `{"w":[0,1,0],"threshold":0.5}`},
		},
		{
			kind: "marginal",
			same: []string{`{"coords":[0,1],"signs":[1,-1]}`, `{"signs":[1,-1],"coords":[0,1]}`},
			diff: []string{`{"coords":[0,1]}`, `{"coords":[1,0],"signs":[1,-1]}`, `{"coords":[0,1],"signs":[-1,1]}`},
		},
		{
			kind: "positive",
			same: []string{"", `{}`, `{"coord":0}`},
			diff: []string{`{"coord":1}`, `{"coord":2}`},
		},
		{
			kind: "parity",
			same: []string{`{"coords":[0,2]}`},
			diff: []string{`{"coords":[2,0]}`, `{"coords":[0,1]}`},
		},
	}
	seen := map[string]string{} // canonical key → "kind params" that produced it
	for _, c := range cases {
		base := key(t, g, c.kind, c.same[0])
		for _, p := range c.same[1:] {
			if got := key(t, g, c.kind, p); got != base {
				t.Errorf("%s: %q canonicalizes to %s, want %s (from %q)", c.kind, p, got, base, c.same[0])
			}
		}
		for _, p := range c.diff {
			if got := key(t, g, c.kind, p); got == base {
				t.Errorf("%s: %q collides with %q on key %s", c.kind, p, c.same[0], base)
			}
		}
		// Cross-kind and cross-params: every distinct group key is globally
		// unique.
		all := append([]string{c.same[0]}, c.diff...)
		for _, p := range all {
			k := key(t, g, c.kind, p)
			if prev, dup := seen[k]; dup {
				t.Errorf("key %s produced by both %q and %s %q", k, prev, c.kind, p)
			}
			seen[k] = c.kind + " " + p
		}
	}
}

// TestCanonicalKeyRandomReorder is the property test: for random parameter
// values, any key-order permutation of the JSON object canonicalizes to
// the same key, and distinct values to distinct keys.
func TestCanonicalKeyRandomReorder(t *testing.T) {
	g := canonGrid(t)
	rng := rand.New(rand.NewSource(42))
	// fields renders a JSON object from name/value pairs in the given order.
	obj := func(names []string, vals map[string]string, perm []int) string {
		parts := make([]string, 0, len(names))
		for _, i := range perm {
			parts = append(parts, fmt.Sprintf("%q:%s", names[i], vals[names[i]]))
		}
		return "{" + strings.Join(parts, ",") + "}"
	}
	seen := map[string]string{}
	for trial := 0; trial < 200; trial++ {
		kind := []string{"logistic", "pinball", "halfspace"}[trial%3]
		var names []string
		vals := map[string]string{}
		switch kind {
		case "logistic":
			names = []string{"margin", "temp"}
			vals["margin"] = fmt.Sprintf("%v", float64(rng.Intn(5))/10)
			vals["temp"] = fmt.Sprintf("%v", 0.1+float64(rng.Intn(9))/10)
		case "pinball":
			names = []string{"tau", "smooth"}
			vals["tau"] = fmt.Sprintf("%v", 0.1+float64(rng.Intn(8))/10)
			vals["smooth"] = fmt.Sprintf("%v", 0.05+float64(rng.Intn(4))/10)
		case "halfspace":
			names = []string{"w", "threshold"}
			vals["w"] = fmt.Sprintf("[%v,%v,%v]", rng.Intn(3), rng.Intn(3), rng.Intn(3))
			vals["threshold"] = fmt.Sprintf("%v", float64(rng.Intn(10))/10)
		}
		identity := make([]int, len(names))
		for i := range identity {
			identity[i] = i
		}
		base := key(t, g, kind, obj(names, vals, identity))
		for p := 0; p < 3; p++ {
			perm := rng.Perm(len(names))
			if got := key(t, g, kind, obj(names, vals, perm)); got != base {
				t.Fatalf("%s: permuted params canonicalize to %s, want %s", kind, got, base)
			}
		}
		// Distinct value tuples must produce distinct keys (same tuple seen
		// twice across trials legitimately repeats its key).
		tuple := kind + "|" + obj(names, vals, identity)
		if prev, dup := seen[base]; dup && prev != tuple {
			t.Fatalf("collision: %s and %s share key %s", prev, tuple, base)
		}
		seen[base] = tuple
	}
}

// TestSquaredNullTargetBuildsDefault pins that an explicit
// {"target": null} — which nulls out the pre-filled default slice during
// decoding — still builds the default label-coordinate instance instead
// of failing the dimension check.
func TestSquaredNullTargetBuildsDefault(t *testing.T) {
	g := canonGrid(t)
	def, err := Build(g, Spec{Kind: "squared"})
	if err != nil {
		t.Fatal(err)
	}
	nul, err := Build(g, Spec{Kind: "squared", Params: json.RawMessage(`{"target":null}`)})
	if err != nil {
		t.Fatalf("explicit null target: %v", err)
	}
	theta := []float64{0.3, -0.2}
	x := []float64{0.5, 0.5, 1}
	if def.Value(theta, x) != nul.Value(theta, x) {
		t.Fatal("null-target instance differs from the default instance")
	}
}

// TestCanonicalKeyErrors pins the failure modes: unknown kinds and
// malformed or unknown-field params are rejected, exactly like Build.
func TestCanonicalKeyErrors(t *testing.T) {
	g := canonGrid(t)
	if _, err := CanonicalKey(g, Spec{Kind: "nope"}); err == nil {
		t.Fatal("unknown kind accepted")
	}
	for _, bad := range []string{`{"tempp":0.5}`, `{"temp":`, `[1,2]`} {
		if _, err := CanonicalKey(g, Spec{Kind: "logistic", Params: json.RawMessage(bad)}); err == nil {
			t.Fatalf("malformed params %q accepted", bad)
		}
	}
}

// FuzzCanonicalKey fuzzes raw params: whenever canonicalization succeeds,
// the key must be a well-formed [kind, params] JSON array, and
// re-canonicalizing the embedded params must be a fixed point.
func FuzzCanonicalKey(f *testing.F) {
	g, err := universe.NewLabeledGrid(2, 3, 1.0, 3, 1.0)
	if err != nil {
		f.Fatal(err)
	}
	kinds := Kinds()
	for _, seed := range []string{"", `{}`, `{"temp":0.7}`, `{"coords":[0,1]}`, `{"w":[1,0,0],"threshold":0.25}`, `{"target":[0,0,1]}`, `{"coords":[0,2],"signs":[1,-1]}`} {
		for i := range kinds {
			f.Add(i, seed)
		}
	}
	f.Fuzz(func(t *testing.T, kindIdx int, raw string) {
		if kindIdx < 0 {
			kindIdx = -kindIdx
		}
		kind := kinds[kindIdx%len(kinds)]
		spec := Spec{Kind: kind}
		if raw != "" {
			spec.Params = json.RawMessage(raw)
		}
		k1, err := CanonicalKey(g, spec)
		if err != nil {
			return // malformed params are allowed to fail
		}
		var arr [2]json.RawMessage
		if err := json.Unmarshal([]byte(k1), &arr); err != nil {
			t.Fatalf("key %q is not a JSON pair: %v", k1, err)
		}
		var gotKind string
		if err := json.Unmarshal(arr[0], &gotKind); err != nil || gotKind != kind {
			t.Fatalf("key %q names kind %q, want %q", k1, gotKind, kind)
		}
		k2, err := CanonicalKey(g, Spec{Kind: kind, Params: arr[1]})
		if err != nil {
			t.Fatalf("canonical params %s of %q fail to re-canonicalize: %v", arr[1], k1, err)
		}
		if k2 != k1 {
			t.Fatalf("canonicalization is not a fixed point: %q → %q", k1, k2)
		}
	})
}
