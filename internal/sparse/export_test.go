package sparse

import (
	"encoding/json"
	"testing"

	"repro/internal/sample"
)

// TestExportRoundTrip snapshots an SV mid-stream and checks the restored
// run answers an identical remaining stream — the ⊥/⊤ sequence, counters,
// and halt point all match the uninterrupted run bitwise.
func TestExportRoundTrip(t *testing.T) {
	cfg := Config{T: 5, K: 60, Alpha: 0.2, Eps: 1, Delta: 1e-6, Sensitivity: 0.01}
	ref, err := New(cfg, sample.New(11))
	if err != nil {
		t.Fatal(err)
	}
	cut, err := New(cfg, sample.New(11))
	if err != nil {
		t.Fatal(err)
	}
	vals := func(i int) float64 {
		// A stream straddling the 3α/4 threshold so both answers occur.
		if i%4 == 0 {
			return 0.19
		}
		return 0.05
	}
	const splitAt = 17
	for i := 0; i < splitAt; i++ {
		a, err1 := ref.Query(vals(i))
		b, err2 := cut.Query(vals(i))
		if err1 != nil || err2 != nil || a != b {
			t.Fatalf("prefix diverged at %d: %v/%v %v/%v", i, a, err1, b, err2)
		}
	}

	raw, err := json.Marshal(cut.Export())
	if err != nil {
		t.Fatal(err)
	}
	var ex Export
	if err := json.Unmarshal(raw, &ex); err != nil {
		t.Fatal(err)
	}
	restored, err := FromExport(cfg, ex)
	if err != nil {
		t.Fatal(err)
	}
	if restored.tops != ref.tops || restored.seen != ref.seen || restored.Halted() != ref.Halted() {
		t.Fatalf("restored counters %d/%d/%v != %d/%d/%v",
			restored.tops, restored.seen, restored.Halted(), ref.tops, ref.seen, ref.Halted())
	}
	for i := splitAt; ; i++ {
		a, err1 := ref.Query(vals(i))
		b, err2 := restored.Query(vals(i))
		if (err1 == nil) != (err2 == nil) {
			t.Fatalf("query %d: error mismatch %v vs %v", i, err1, err2)
		}
		if err1 != nil {
			if err1 != ErrHalted || err2 != ErrHalted {
				t.Fatalf("query %d: unexpected errors %v / %v", i, err1, err2)
			}
			break
		}
		if a != b {
			t.Fatalf("query %d: restored answered %v, uninterrupted %v", i, b, a)
		}
	}
}

// TestFromExportValidation checks inconsistent snapshots are rejected.
func TestFromExportValidation(t *testing.T) {
	cfg := Config{T: 3, K: 10, Alpha: 0.2, Eps: 1, Delta: 1e-6, Sensitivity: 0.01}
	src := sample.New(3).State()
	cases := map[string]Export{
		"tops over T":          {Tops: 4, Seen: 5, Halted: true, Src: src},
		"seen over K":          {Tops: 1, Seen: 11, Halted: true, Src: src},
		"negative tops":        {Tops: -1, Src: src},
		"live but exhausted":   {Tops: 3, Seen: 3, Halted: false, Src: src},
		"non-finite threshold": {Tops: 1, Seen: 1, NoisyThresh: nan(), Src: src},
	}
	for name, ex := range cases {
		if _, err := FromExport(cfg, ex); err == nil {
			t.Errorf("%s accepted", name)
		}
	}
	if _, err := FromExport(Config{}, Export{Src: src}); err == nil {
		t.Error("invalid config accepted")
	}
}

func nan() float64 {
	var zero float64
	return zero / zero
}
