package main

import (
	"fmt"
	"runtime"
	"sort"
	"time"

	"repro/internal/convex"
	"repro/internal/core"
	"repro/internal/dataset"
	"repro/internal/erm"
	"repro/internal/sample"
	"repro/internal/service"
	"repro/internal/universe"
)

// The serve command's defaults for the dataset flags the benchmark leaves
// unset.
const (
	serveSkew        = 1.3
	serveLabelRadius = 1.0
	serveFeatRadius  = 1.0
)

// serveData derives a serve process's private dataset and its session
// manager's root noise source exactly as `pmwcm serve` does from its
// mechanism seed.
func serveData(w *workload) (*dataset.Dataset, *sample.Source, error) {
	g, err := universe.NewLabeledGrid(w.dim, w.levels, serveFeatRadius, w.labels, serveLabelRadius)
	if err != nil {
		return nil, nil, err
	}
	src := sample.New(mechanismSeed)
	pop, err := dataset.Skewed(g, serveSkew)
	if err != nil {
		return nil, nil, err
	}
	data := dataset.SampleFrom(src.Split(), pop, w.rows)
	return data, src.Split(), nil
}

// replay is the reference the served answers are checked against: each
// session's stream fed in order into its own core.Server, built from the
// noise source its server split off for it, with the service's answer
// cache modelled as a map from canonical key to the first answer. It runs
// on one goroutine, so the oracle and xeval spans a tracer records nest
// exactly inside the Answer span that caused them.
func replay(w *workload, seed int64, n int, keys []sessionKey, tr *tracer) (map[sessionKey][]answer, error) {
	data, root, err := serveData(w)
	if err != nil {
		return nil, err
	}
	var oracle erm.Oracle
	if oracle, err = service.OracleByName("noisygd", runtime.NumCPU()); err != nil {
		return nil, err
	}
	if tr != nil {
		oracle = tracedOracle{Oracle: oracle, t: tr}
	}
	// Every server derives its session sources from an identical root, so
	// the i-th created session of any server draws from the i-th split.
	var splits []*sample.Source
	for _, k := range keys {
		for len(splits) <= w.creationIndex(k) {
			splits = append(splits, root.Split())
		}
	}
	// Sessions take the parameters they leave unset from the serve
	// command's defaults, which are the service's.
	p, def := w.params, service.DefaultSessionParams()
	cfg := core.Config{
		Eps: p.Eps, Delta: def.Delta,
		Alpha: p.Alpha, Beta: def.Beta,
		K: p.K, S: def.S,
		Oracle:     oracle,
		TBudget:    p.TBudget,
		Workers:    runtime.NumCPU(),
		Accountant: def.Accountant,
	}
	out := make(map[sessionKey][]answer, len(keys))
	for _, k := range keys {
		// In a fleet, sessions on different replicas share a split index;
		// each replays from its own copy of the stream.
		src, err := sample.FromState(splits[w.creationIndex(k)].State())
		if err != nil {
			return nil, err
		}
		srv, err := core.New(cfg, data, src)
		if err != nil {
			return nil, fmt.Errorf("replay %s: %w", k, err)
		}
		cache := map[string][]float64{}
		var as []answer
		for i, sp := range w.stream(seed, k, n) {
			cs := convex.Spec{Kind: sp.Kind, Params: sp.Params}
			key, err := convex.CanonicalKey(data.U, cs)
			if err != nil {
				return nil, fmt.Errorf("replay %s query %d: %w", k, i, err)
			}
			if v, ok := cache[key]; ok {
				as = append(as, answer{disp: dispHit, vals: v})
				continue
			}
			l, err := convex.Build(data.U, cs)
			if err != nil {
				return nil, fmt.Errorf("replay %s query %d: %w", k, i, err)
			}
			before := srv.Updates()
			start := time.Now()
			theta, err := srv.Answer(l)
			if tr != nil {
				tr.add(spanAnswer, "", start, time.Now(), 0)
			}
			if err != nil {
				return nil, fmt.Errorf("replay %s query %d: %w", k, i, err)
			}
			a := answer{disp: dispBottom, vals: append([]float64(nil), theta...)}
			if srv.Updates() > before {
				a.disp = dispTop
			}
			cache[key] = a.vals
			as = append(as, a)
		}
		out[k] = as
	}
	return out, nil
}

// checkAnswers compares round i's client logs with the replay and returns
// a description of every session that differs.
func checkAnswers(w *workload, i int, got []sessionLog, want map[sessionKey][]answer) []string {
	var bad []string
	seen := map[sessionKey]bool{}
	for _, sl := range got {
		seen[sl.key] = true
		if len(sl.answers) != w.streamLen() {
			bad = append(bad, fmt.Sprintf("session %s: %d of %d answers released", sl.key, len(sl.answers), w.streamLen()))
			continue
		}
		ref := want[sl.key][:w.streamLen()]
		if digest(sl.answers) != digest(ref) {
			bad = append(bad, fmt.Sprintf("session %s: %s", sl.key, firstDiff(sl.answers, ref)))
		}
	}
	for _, k := range w.keys(i) {
		if !seen[k] {
			bad = append(bad, fmt.Sprintf("session %s: no answers", k))
		}
	}
	sort.Strings(bad)
	return bad
}

func firstDiff(got, want []answer) string {
	for i := range got {
		if i >= len(want) {
			break
		}
		if digest(got[i:i+1]) != digest(want[i:i+1]) {
			return fmt.Sprintf("answer %d is %c%v, replay gives %c%v", i, got[i].disp, got[i].vals, want[i].disp, want[i].vals)
		}
	}
	return "answers differ"
}
