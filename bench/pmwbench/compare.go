package main

import (
	"encoding/json"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"text/tabwriter"
)

// declaration is the part of BENCHMARK.json compare reads.
type declaration struct {
	EndToEnd []struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
}

// compareCmd judges a change B against its parent A from end-to-end result
// files, workload by workload, by the rule for claiming a gain: B wins at
// least nine tenths of the pairs (ties count for neither side), the
// medians differ by more than the parent's interquartile range, and B
// fails no more operations than A. Every other metric must stay within its
// BENCHMARK.json bound of the parent's median; where the spread is wider
// than the bound the metric is unresolved, unless every run of B beats
// every run of A. A run that released a wrong answer invalidates its side.
// Pairs are formed in the order the runs finished, so run the two sides
// alternately.
//
// The timing details a workload prints beside the declared metrics
// (resume, recovery, cache-hit and ⊤ latencies) are judged the same way,
// against the smallest bound declared for their unit.
func compareCmd(args []string) error {
	if len(args) != 2 {
		return fmt.Errorf("usage: pmwbench compare PARENT CHANGE (each a directory or a quoted glob of result files)")
	}
	raw, err := os.ReadFile("BENCHMARK.json")
	if err != nil {
		return err
	}
	var decl declaration
	if err := json.Unmarshal(raw, &decl); err != nil {
		return fmt.Errorf("BENCHMARK.json: %w", err)
	}
	parent, err := loadResults(args[0])
	if err != nil {
		return err
	}
	change, err := loadResults(args[1])
	if err != nil {
		return err
	}
	var names []string
	for name := range parent {
		if change[name] != nil {
			names = append(names, name)
		}
	}
	if len(names) == 0 {
		return fmt.Errorf("no workload has end-to-end results on both sides")
	}
	sort.Strings(names)
	type judged struct {
		name, unit  string
		lowerBetter bool
		bound       float64
		detail      bool
	}
	var metrics []judged
	declared := map[string]bool{}
	unitBound := map[string]float64{}
	for _, m := range decl.EndToEnd {
		metrics = append(metrics, judged{m.Name, m.Unit, m.Better == "lower", m.Bound, false})
		declared[m.Name] = true
		if b, ok := unitBound[m.Unit]; !ok || m.Bound < b {
			unitBound[m.Unit] = m.Bound
		}
	}
	tw := tabwriter.NewWriter(os.Stdout, 0, 4, 2, ' ', 0)
	fmt.Fprintln(tw, "workload\tmetric\tparent median [q1, q3]\tchange median [q1, q3]\tchange wins\tverdict")
	for _, name := range names {
		a, b := parent[name], change[name]
		fmt.Fprintf(tw, "%s\tcorrect runs, failed/attempted\t%d/%d, %d/%d\t%d/%d, %d/%d\t\t%s\n",
			name, a.correct, len(a.runs), a.failed, a.attempted, b.correct, len(b.runs), b.failed, b.attempted, validity(a, b))
		ms := metrics
		for _, d := range timingDetails(a, b) {
			if !declared[d.name] {
				ms = append(ms, judged{d.name, d.unit, true, unitBound[d.unit], true})
			}
		}
		for _, m := range ms {
			if m.bound == 0 {
				continue
			}
			va, vb := a.values(m.name, m.detail), b.values(m.name, m.detail)
			if len(va) == 0 || len(vb) == 0 {
				continue
			}
			c := judge(va, vb, m.lowerBetter, m.bound, b.failsMore(a))
			label := m.name
			if m.detail {
				label += " (detail)"
			}
			fmt.Fprintf(tw, "%s\t%s\t%.4g [%.4g, %.4g]\t%.4g [%.4g, %.4g]\t%d/%d\t%s\n",
				name, label, c.medA, c.q1A, c.q3A, c.medB, c.q1B, c.q3B, c.wins, c.pairs, c.verdict)
		}
	}
	return tw.Flush()
}

// side is one commit's end-to-end results for one workload, in the order
// the runs finished, with their correctness and failure totals.
type side struct {
	runs              []*result
	correct           int // runs whose every answer matched the replay
	failed, attempted int
}

func (s *side) values(metric string, detail bool) []float64 {
	var out []float64
	for _, r := range s.runs {
		src := r.Metrics
		if detail {
			src = r.Details
		}
		if m, ok := src[metric]; ok {
			out = append(out, m.Value)
		}
	}
	return out
}

// failsMore reports whether s failed a larger share of its operations
// than o.
func (s *side) failsMore(o *side) bool {
	return float64(s.failed)*float64(o.attempted) > float64(o.failed)*float64(s.attempted)
}

// validity says whether parent a's and change b's numbers may be compared
// at all.
func validity(a, b *side) string {
	switch {
	case b.correct < len(b.runs):
		return fmt.Sprintf("INVALID: the change released wrong answers or failed operations in %d of %d runs", len(b.runs)-b.correct, len(b.runs))
	case a.correct < len(a.runs):
		return fmt.Sprintf("INVALID: the parent released wrong answers or failed operations in %d of %d runs", len(a.runs)-a.correct, len(a.runs))
	case b.failsMore(a):
		return "the change fails more operations: no gain counts"
	}
	return "all answers checked"
}

type detailName struct{ name, unit string }

// timingDetails lists the details in milliseconds or seconds that every
// run on both sides reports, except the raw (unscaled) copies of the
// declared metrics.
func timingDetails(a, b *side) []detailName {
	count := map[detailName]int{}
	runs := append(append([]*result(nil), a.runs...), b.runs...)
	for _, r := range runs {
		for name, m := range r.Details {
			if (m.Unit == "ms" || m.Unit == "s") && !strings.HasPrefix(name, "raw_") {
				count[detailName{name, m.Unit}]++
			}
		}
	}
	var out []detailName
	for d, n := range count {
		if n == len(runs) {
			out = append(out, d)
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].name < out[j].name })
	return out
}

// loadResults reads end-to-end result files, grouped by workload in the
// order the runs finished.
func loadResults(arg string) (map[string]*side, error) {
	pattern := arg
	if st, err := os.Stat(arg); err == nil && st.IsDir() {
		pattern = filepath.Join(arg, "*.json")
	}
	paths, err := filepath.Glob(pattern)
	if err != nil {
		return nil, err
	}
	out := map[string]*side{}
	for _, p := range paths {
		data, err := os.ReadFile(p)
		if err != nil {
			return nil, err
		}
		var res result
		if err := json.Unmarshal(data, &res); err != nil {
			return nil, fmt.Errorf("%s: %w", p, err)
		}
		if res.Trace != 0 || res.Workload == "" {
			continue
		}
		s := out[res.Workload]
		if s == nil {
			s = &side{}
			out[res.Workload] = s
		}
		s.runs = append(s.runs, &res)
		if res.Correct {
			s.correct++
		}
		s.failed += res.Failed
		s.attempted += res.Attempted
	}
	for _, s := range out {
		sort.SliceStable(s.runs, func(i, j int) bool { return s.runs[i].Time < s.runs[j].Time })
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("%s: no end-to-end result files", arg)
	}
	return out, nil
}

type comparison struct {
	medA, q1A, q3A float64
	medB, q1B, q3B float64
	wins, pairs    int
	verdict        string
}

// judge applies the gain and regression rules to one metric's runs.
// failsMore withholds a gain from a change that fails more operations.
func judge(a, b []float64, lowerBetter bool, bound float64, failsMore bool) comparison {
	c := comparison{medA: median(a), medB: median(b)}
	c.q1A, c.q3A = quartiles(a)
	c.q1B, c.q3B = quartiles(b)
	better := func(x, y float64) bool { // x better than y
		if lowerBetter {
			return x < y
		}
		return x > y
	}
	c.pairs = min(len(a), len(b))
	for i := 0; i < c.pairs; i++ {
		if better(b[i], a[i]) {
			c.wins++
		}
	}
	// worse is how far B's median lies on the bad side of A's, as a share.
	worse := (c.medB - c.medA) / c.medA
	if !lowerBetter {
		worse = -worse
	}
	allBetter := true
	for _, x := range b {
		for _, y := range a {
			allBetter = allBetter && better(x, y)
		}
	}
	spread := max((c.q3A-c.q1A)/c.medA, (c.q3B-c.q1B)/c.medB)
	// beyondNoise: the medians differ by more than the parent's own spread.
	beyondNoise := math.Abs(c.medB-c.medA) > c.q3A-c.q1A
	switch {
	case !failsMore && better(c.medB, c.medA) && 10*c.wins >= 9*c.pairs && beyondNoise:
		c.verdict = "gain"
	case !failsMore && allBetter:
		c.verdict = "better in every run"
	case worse > bound && (spread <= bound || beyondNoise):
		c.verdict = fmt.Sprintf("regression (%.1f%% worse, bound %.0f%%)", 100*worse, 100*bound)
	case spread > bound:
		c.verdict = fmt.Sprintf("unresolved (spread %.1f%% > bound %.0f%%)", 100*spread, 100*bound)
	default:
		c.verdict = fmt.Sprintf("within bound (%+.1f%%)", -100*worse)
	}
	return c
}
