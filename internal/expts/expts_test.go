package expts

import (
	"bytes"
	"strings"
	"testing"
)

func TestTableFormatting(t *testing.T) {
	tbl := &Table{
		Name:       "X",
		Title:      "demo",
		PaperClaim: "claim",
		Columns:    []string{"a", "bbbb"},
	}
	tbl.Add(1, 2.5)
	tbl.Add("x", 0.333333333)
	tbl.Note("observed %d", 7)
	var buf bytes.Buffer
	if err := tbl.Write(&buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{"== X — demo ==", "paper: claim", "a", "bbbb", "0.3333", "note: observed 7"} {
		if !strings.Contains(out, want) {
			t.Errorf("output missing %q:\n%s", want, out)
		}
	}
}

func TestTableCSV(t *testing.T) {
	tbl := &Table{Columns: []string{"a", "b"}}
	tbl.Add("x,y", 1)
	var buf bytes.Buffer
	if err := tbl.CSV(&buf); err != nil {
		t.Fatal(err)
	}
	want := "a,b\n\"x,y\",1\n"
	if buf.String() != want {
		t.Errorf("CSV = %q, want %q", buf.String(), want)
	}
}

func TestRegistry(t *testing.T) {
	all := All()
	wantIDs := []string{
		"A1.ETA", "A2.DUAL", "A3.ORACLE",
		"F1.ACC", "F2.SV", "F3.ALG", "F4.COMP",
		"T1.GLM", "T1.LIN", "T1.LIP", "T1.SC",
		"X1.HR10", "X2.ADAPT", "X3.OFFLINE",
	}
	if len(all) != len(wantIDs) {
		t.Fatalf("registry has %d experiments, want %d", len(all), len(wantIDs))
	}
	for i, e := range all {
		if e.ID != wantIDs[i] {
			t.Errorf("experiment %d = %s, want %s", i, e.ID, wantIDs[i])
		}
		if e.Title == "" || e.PaperClaim == "" || e.Run == nil {
			t.Errorf("experiment %s incompletely specified", e.ID)
		}
	}
	if _, ok := ByID("T1.LIN"); !ok {
		t.Error("ByID failed for T1.LIN")
	}
	if _, ok := ByID("NOPE"); ok {
		t.Error("ByID found a ghost")
	}
}

// Smoke-run every experiment in Quick mode: it must complete without error
// and produce a non-empty table. It pins the plumbing only; no code checks
// a table's shape against the paper's claim.
func TestAllExperimentsQuick(t *testing.T) {
	if testing.Short() {
		t.Skip("quick experiment sweep skipped in -short mode")
	}
	for _, e := range All() {
		e := e
		t.Run(e.ID, func(t *testing.T) {
			tbl, err := e.Run(RunConfig{Seed: 1, Quick: true})
			if err != nil {
				t.Fatalf("%s failed: %v", e.ID, err)
			}
			if len(tbl.Rows) == 0 {
				t.Fatalf("%s produced no rows", e.ID)
			}
			var buf bytes.Buffer
			if err := tbl.Write(&buf); err != nil {
				t.Fatal(err)
			}
			t.Log("\n" + buf.String())
		})
	}
}
