package convex

import (
	"encoding/json"
	"reflect"
	"testing"
)

// TestCanonicalKeyGolden pins, byte for byte, the canonical key and the
// built instance name (or the build error) of every kind on canonGrid: its
// default spec, the smallest spec that builds where the default cannot,
// and one non-default spec. Transcripts record these keys as cache_key and
// WAL replay compares them, so a change here is a change to every stored
// session's identity.
func TestCanonicalKeyGolden(t *testing.T) {
	g := canonGrid(t)
	wantKinds := []string{"halfspace", "hinge", "huber", "linear", "logistic", "marginal", "parity", "pinball", "positive", "squared"}
	if got := Kinds(); !reflect.DeepEqual(got, wantKinds) {
		t.Fatalf("Kinds() = %v, want %v", got, wantKinds)
	}
	cases := []struct {
		kind, params string
		key          string
		name         string // built instance name; empty when the build fails
		err          string // build error text when it fails
	}{
		{"halfspace", "", `["halfspace",{"w":null,"threshold":0}]`, "", `convex: building "halfspace": w has dim 0, universe dim is 3`},
		{"halfspace", `{"w":[1,1,0],"threshold":0}`, `["halfspace",{"w":[1,1,0],"threshold":0}]`, `halfspace{"w":[1,1,0],"threshold":0}`, ""},
		{"halfspace", `{"threshold":0.0625,"w":[0.125000,-0.250000,0.500000]}`, `["halfspace",{"w":[0.125,-0.25,0.5],"threshold":0.0625}]`, `halfspace{"threshold":0.0625,"w":[0.125000,-0.250000,0...`, ""},
		{"hinge", "", `["hinge",{"width":1}]`, "hinge", ""},
		{"hinge", `{"width":2}`, `["hinge",{"width":2}]`, `hinge{"width":2}`, ""},
		{"huber", "", `["huber",{"delta":0.5}]`, "huber", ""},
		{"huber", `{"delta":0.25}`, `["huber",{"delta":0.25}]`, `huber{"delta":0.25}`, ""},
		{"linear", "", `["linear",{"v":null}]`, "", `convex: building "linear": v has dim 0, universe dim is 3`},
		{"linear", `{"v":[0,0,1]}`, `["linear",{"v":[0,0,1]}]`, `linear{"v":[0,0,1]}`, ""},
		{"linear", `{"v":[0.5,-0.5,0.5]}`, `["linear",{"v":[0.5,-0.5,0.5]}]`, `linear{"v":[0.5,-0.5,0.5]}`, ""},
		{"logistic", "", `["logistic",{"margin":0,"temp":0.5}]`, "logistic", ""},
		{"logistic", `{"temp":0.25,"margin":0.1}`, `["logistic",{"margin":0.1,"temp":0.25}]`, `logistic{"temp":0.25,"margin":0.1}`, ""},
		{"marginal", "", `["marginal",{"coords":null,"signs":null}]`, "", `convex: building "marginal": needs at least one coordinate`},
		{"marginal", `{"coords":[0]}`, `["marginal",{"coords":[0],"signs":null}]`, `marginal{"coords":[0]}`, ""},
		{"marginal", `{"signs":[1,-1],"coords":[0,2]}`, `["marginal",{"coords":[0,2],"signs":[1,-1]}]`, `marginal{"signs":[1,-1],"coords":[0,2]}`, ""},
		{"parity", "", `["parity",{"coords":null}]`, "", `convex: building "parity": needs at least one coordinate`},
		{"parity", `{"coords":[0,1]}`, `["parity",{"coords":[0,1]}]`, `parity{"coords":[0,1]}`, ""},
		{"parity", `{"coords":[2,0]}`, `["parity",{"coords":[2,0]}]`, `parity{"coords":[2,0]}`, ""},
		{"pinball", "", `["pinball",{"tau":0.5,"smooth":0.1}]`, "pinball", ""},
		{"pinball", `{"tau":0.9}`, `["pinball",{"tau":0.9,"smooth":0.1}]`, `pinball{"tau":0.9}`, ""},
		{"positive", "", `["positive",{"coord":0}]`, "positive", ""},
		{"positive", `{"coord":2}`, `["positive",{"coord":2}]`, `positive{"coord":2}`, ""},
		{"squared", "", `["squared",{"target":[0,0,1]}]`, "squared", ""},
		{"squared", `{"target":[1,0,-1]}`, `["squared",{"target":[1,0,-1]}]`, `squared{"target":[1,0,-1]}`, ""},
	}
	for _, c := range cases {
		spec := Spec{Kind: c.kind}
		if c.params != "" {
			spec.Params = json.RawMessage(c.params)
		}
		key, err := CanonicalKey(g, spec)
		if err != nil {
			t.Errorf("CanonicalKey(%s %s): %v", c.kind, c.params, err)
		} else if key != c.key {
			t.Errorf("CanonicalKey(%s %s) = %s, want %s", c.kind, c.params, key, c.key)
		}
		l, err := Build(g, spec)
		switch {
		case c.err != "":
			if err == nil || err.Error() != c.err {
				t.Errorf("Build(%s %s) error = %v, want %q", c.kind, c.params, err, c.err)
			}
		case err != nil:
			t.Errorf("Build(%s %s): %v", c.kind, c.params, err)
		case l.Name() != c.name:
			t.Errorf("Build(%s %s).Name() = %s, want %s", c.kind, c.params, l.Name(), c.name)
		}
	}
	const unknown = `convex: unknown loss kind "nope" (have [halfspace hinge huber linear logistic marginal parity pinball positive squared])`
	if _, err := CanonicalKey(g, Spec{Kind: "nope"}); err == nil || err.Error() != unknown {
		t.Errorf("CanonicalKey(nope) error = %v, want %q", err, unknown)
	}
	if _, err := Build(g, Spec{Kind: "nope"}); err == nil || err.Error() != unknown {
		t.Errorf("Build(nope) error = %v, want %q", err, unknown)
	}
	const badParams = `convex: canonicalizing "logistic": json: unknown field "tempp"`
	if _, err := CanonicalKey(g, Spec{Kind: "logistic", Params: json.RawMessage(`{"tempp":0.5}`)}); err == nil || err.Error() != badParams {
		t.Errorf("CanonicalKey(logistic tempp) error = %v, want %q", err, badParams)
	}
}
