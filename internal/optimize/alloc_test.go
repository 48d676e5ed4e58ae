package optimize

import (
	"encoding/json"
	"fmt"
	"testing"

	"repro/internal/convex"
	"repro/internal/histogram"
	"repro/internal/xeval"
)

// TestMinimizeAllocsPerIterate is the solver's allocation gate: after the
// per-solve setup, an iterate allocates at most once (the fresh slice
// Domain.Project returns). It solves every registry kind on the 27-point
// grid, on a dense and a sparse histogram, serially and on a
// 2-worker engine (as serve runs it), at MaxIters 100 and 400, and
// requires the two allocation counts to differ by at most the difference
// in iterations performed. A per-iterate buffer, closure or reduction
// that a solve rebuilds on every sweep fails here.
func TestMinimizeAllocsPerIterate(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector makes sync.Pool drop entries, so pooled buffers allocate at random")
	}
	g := grid(t)
	dense := make([]float64, g.Size())
	var z float64
	for i := range dense {
		dense[i] = float64(1 + i%5)
		z += dense[i]
	}
	for i := range dense {
		dense[i] /= z
	}
	sparse := make([]float64, g.Size())
	sparse[2], sparse[13], sparse[24] = 0.5, 0.25, 0.25
	hists := []struct {
		name string
		h    *histogram.Histogram
	}{
		{"dense", &histogram.Histogram{U: g, P: dense}},
		{"sparse", &histogram.Histogram{U: g, P: sparse}},
	}
	for _, kind := range convex.Kinds() {
		sp := convex.Spec{Kind: kind}
		if p, ok := gridParams[kind]; ok {
			sp.Params = json.RawMessage(p)
		}
		l, err := convex.Build(g, sp)
		if err != nil {
			t.Fatalf("%s: %v", kind, err)
		}
		for _, hc := range hists {
			for _, e := range []*xeval.Engine{nil, xeval.New(2)} {
				name := fmt.Sprintf("%s/%s/workers=%d", kind, hc.name, e.Workers())
				iters := map[int]int{}
				allocs := map[int]float64{}
				for _, maxIters := range []int{100, 400} {
					opts := Options{MaxIters: maxIters, Engine: e}
					res, err := Minimize(l, hc.h, opts)
					if err != nil {
						t.Fatalf("%s: %v", name, err)
					}
					iters[maxIters] = res.Iters
					allocs[maxIters] = testing.AllocsPerRun(5, func() {
						if _, err := Minimize(l, hc.h, opts); err != nil {
							t.Fatal(err)
						}
					})
				}
				if extra, more := allocs[400]-allocs[100], float64(iters[400]-iters[100]); extra > more {
					t.Errorf("%s: %v allocs at %d iters, %v at %d: %v more for %v more iterates",
						name, allocs[100], iters[100], allocs[400], iters[400], extra, more)
				}
			}
		}
	}
}

// gridParams holds parameters for the registry kinds whose defaults do not
// fit grid's 3-coordinate records.
var gridParams = map[string]string{
	"linear":    `{"v":[0.5,-0.5,0.5]}`,
	"halfspace": `{"w":[1,-1,0.5],"threshold":0.1}`,
	"marginal":  `{"coords":[0,1],"signs":[1,-1]}`,
	"parity":    `{"coords":[0,2]}`,
}
