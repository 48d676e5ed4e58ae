package transcript

import (
	"encoding/json"
	"math"
	"testing"

	"repro/internal/core"
	"repro/internal/dataset"
	"repro/internal/erm"
	"repro/internal/sample"
	"repro/internal/universe"
	"repro/internal/workload"
)

func TestAppendAndStats(t *testing.T) {
	tr := New(map[string]float64{"eps": 1})
	tr.Append(Event{Query: "a", Top: true, EpsSpent: 0.1, DeltaSpent: 1e-8})
	tr.Append(Event{Query: "b"})
	tr.Append(Event{Query: "c", Top: true, EpsSpent: 0.1, DeltaSpent: 1e-8})
	if tr.Events[0].Index != 1 || tr.Events[2].Index != 3 {
		t.Errorf("indices = %d, %d", tr.Events[0].Index, tr.Events[2].Index)
	}
	if tr.Tops() != 2 {
		t.Errorf("Tops = %d", tr.Tops())
	}
	eps, delta := tr.SpentOracle()
	if math.Abs(eps-0.2) > 1e-12 || math.Abs(delta-2e-8) > 1e-20 {
		t.Errorf("spend = %v, %v", eps, delta)
	}
	if New(nil).Meta == nil {
		t.Error("nil meta not defaulted")
	}
}

func TestJSONRoundTrip(t *testing.T) {
	tr := New(map[string]float64{"eps": 1, "alpha": 0.1})
	tr.Append(Event{Query: "q1", Answer: []float64{0.25}, Top: true, EpsSpent: 0.05})
	tr.Append(Event{Query: "q2", Answer: []float64{0.75}})
	tr.HaltedEarly = true
	raw, err := json.Marshal(tr)
	if err != nil {
		t.Fatal(err)
	}
	var got Transcript
	if err := json.Unmarshal(raw, &got); err != nil {
		t.Fatal(err)
	}
	if got.Meta["alpha"] != 0.1 || len(got.Events) != 2 || !got.HaltedEarly {
		t.Fatalf("round trip lost data: %+v", got)
	}
	if got.Events[0].Query != "q1" || got.Events[0].Answer[0] != 0.25 || !got.Events[0].Top {
		t.Fatalf("event mangled: %+v", got.Events[0])
	}
}

func TestRecorderTranscribesServer(t *testing.T) {
	g, err := universe.NewLabeledGrid(2, 3, 1.0, 3, 1.0)
	if err != nil {
		t.Fatal(err)
	}
	src := sample.New(1)
	pop, err := dataset.Skewed(g, 1.5)
	if err != nil {
		t.Fatal(err)
	}
	data := dataset.SampleFrom(src, pop, 80000)
	srv, err := core.New(core.Config{
		Eps: 1, Delta: 1e-6, Alpha: 0.03, Beta: 0.05,
		K: 50, S: 1, Oracle: erm.LaplaceLinear{}, TBudget: 10,
	}, data, src.Split())
	if err != nil {
		t.Fatal(err)
	}
	rec := NewRecorder(srv)
	qs, err := workload.Halfspaces(src.Split(), g, 50)
	if err != nil {
		t.Fatal(err)
	}
	var answered int
	for _, q := range qs {
		if _, err := rec.Answer(q); err != nil {
			break
		}
		answered++
	}
	tr := rec.T
	if len(tr.Events) != answered {
		t.Fatalf("%d events for %d answers", len(tr.Events), answered)
	}
	if tr.Tops() != srv.Updates() {
		t.Errorf("transcript tops %d != server updates %d", tr.Tops(), srv.Updates())
	}
	// Per-event spend equals ε₀ for tops, 0 otherwise.
	p := srv.Params()
	for _, e := range tr.Events {
		if e.Top && e.EpsSpent != p.Eps0 {
			t.Errorf("top event spend = %v, want %v", e.EpsSpent, p.Eps0)
		}
		if !e.Top && e.EpsSpent != 0 {
			t.Errorf("bottom event spent %v", e.EpsSpent)
		}
	}
	// Metadata mirrors the derived parameters.
	if tr.Meta["T"] != float64(p.T) || tr.Meta["eps0"] != p.Eps0 {
		t.Error("metadata wrong")
	}
	// The transcript round-trips through its JSON encoding.
	raw, err := json.Marshal(tr)
	if err != nil {
		t.Fatal(err)
	}
	var back Transcript
	if err := json.Unmarshal(raw, &back); err != nil {
		t.Fatal(err)
	}
	if back.Tops() != tr.Tops() {
		t.Error("round-trip changed tops")
	}
}

func TestRecorderRecordsHalt(t *testing.T) {
	g, err := universe.NewLabeledGrid(2, 3, 1.0, 3, 1.0)
	if err != nil {
		t.Fatal(err)
	}
	src := sample.New(2)
	pop, err := dataset.Skewed(g, 1.5)
	if err != nil {
		t.Fatal(err)
	}
	data := dataset.SampleFrom(src, pop, 80000)
	srv, err := core.New(core.Config{
		Eps: 1, Delta: 1e-6, Alpha: 0.01, Beta: 0.05,
		K: 100, S: 1, Oracle: erm.LaplaceLinear{}, TBudget: 1,
	}, data, src.Split())
	if err != nil {
		t.Fatal(err)
	}
	rec := NewRecorder(srv)
	qs, err := workload.Halfspaces(src.Split(), g, 100)
	if err != nil {
		t.Fatal(err)
	}
	halted := false
	for _, q := range qs {
		if _, err := rec.Answer(q); err == core.ErrHalted {
			halted = true
			break
		} else if err != nil {
			t.Fatal(err)
		}
	}
	if !halted {
		t.Skip("no halt on this seed")
	}
	if !rec.T.HaltedEarly {
		t.Error("halt not transcribed")
	}
}
