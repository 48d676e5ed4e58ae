package accuracy

import (
	"math"
	"sort"
	"testing"

	"repro/internal/convex"
	"repro/internal/sample"
)

func TestRandomPool(t *testing.T) {
	pool := []convex.Loss{linQuery(t, 0), linQuery(t, 1), linQuery(t, 2)}
	adv := &RandomPool{Pool: pool, Src: sample.New(1), Max: 10}
	var history []Exchange
	seen := map[string]bool{}
	for i := 0; i < 10; i++ {
		l, ok := adv.Next(history)
		if !ok {
			t.Fatalf("adversary quit at %d", i)
		}
		seen[l.Name()] = true
		history = append(history, Exchange{Loss: l})
	}
	if _, ok := adv.Next(history); ok {
		t.Error("adversary exceeded Max")
	}
	if len(seen) < 2 {
		t.Errorf("random pool drew only %d distinct queries over 10 draws", len(seen))
	}
	// Max = 0 defaults to pool length.
	adv2 := &RandomPool{Pool: pool, Src: sample.New(2)}
	var h2 []Exchange
	for i := 0; i < 3; i++ {
		l, ok := adv2.Next(h2)
		if !ok {
			t.Fatalf("default-max adversary quit at %d", i)
		}
		h2 = append(h2, Exchange{Loss: l})
	}
	if _, ok := adv2.Next(h2); ok {
		t.Error("default-max adversary exceeded pool size")
	}
	// Empty pool quits immediately.
	empty := &RandomPool{Src: sample.New(3)}
	if _, ok := empty.Next(nil); ok {
		t.Error("empty pool produced a query")
	}
}

func TestGameResultStats(t *testing.T) {
	r := &GameResult{}
	if r.MeanErr() != 0 || r.QuantileErr(0.5) != 0 {
		t.Error("empty stats nonzero")
	}
	r.Transcript = []Exchange{{Err: 0.1}, {Err: 0.3}, {Err: 0.2}, {Err: 0.4}}
	if got := r.MeanErr(); math.Abs(got-0.25) > 1e-12 {
		t.Errorf("MeanErr = %v", got)
	}
	if got := r.QuantileErr(0.5); got != 0.2 {
		t.Errorf("median = %v, want 0.2", got)
	}
	if got := r.QuantileErr(1.0); got != 0.4 {
		t.Errorf("max quantile = %v", got)
	}
	if got := r.QuantileErr(0); got != 0.1 {
		t.Errorf("min quantile = %v", got)
	}
	// Out-of-range q values clamp rather than panic.
	if got := r.QuantileErr(2); got != 0.4 {
		t.Errorf("q=2 → %v", got)
	}
}

// RandomPool asks queries drawn uniformly (with replacement) from a pool —
// the "many analysts, uncoordinated questions" traffic pattern. RandomPool,
// MeanErr and QuantileErr have no caller outside the tests in this file.
type RandomPool struct {
	Pool []convex.Loss
	Src  *sample.Source
	// Max caps the number of queries (0 = len(Pool)).
	Max int
}

// Next implements Adversary.
func (r *RandomPool) Next(history []Exchange) (convex.Loss, bool) {
	maxQ := r.Max
	if maxQ <= 0 {
		maxQ = len(r.Pool)
	}
	if len(history) >= maxQ || len(r.Pool) == 0 {
		return nil, false
	}
	return r.Pool[r.Src.Intn(len(r.Pool))], true
}

// MeanErr returns the average per-query error of the transcript (0 for an
// empty transcript).
func (r *GameResult) MeanErr() float64 {
	if len(r.Transcript) == 0 {
		return 0
	}
	var s float64
	for _, ex := range r.Transcript {
		s += ex.Err
	}
	return s / float64(len(r.Transcript))
}

// QuantileErr returns the q-th error quantile of the transcript (q in
// [0, 1]; nearest-rank). It returns 0 for an empty transcript.
func (r *GameResult) QuantileErr(q float64) float64 {
	n := len(r.Transcript)
	if n == 0 {
		return 0
	}
	errs := make([]float64, n)
	for i, ex := range r.Transcript {
		errs[i] = ex.Err
	}
	sort.Float64s(errs)
	idx := int(math.Ceil(q*float64(n))) - 1
	if idx < 0 {
		idx = 0
	}
	if idx >= n {
		idx = n - 1
	}
	return errs[idx]
}
