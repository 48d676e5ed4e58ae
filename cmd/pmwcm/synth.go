package main

import (
	"flag"
	"fmt"
	"io"
	"os"

	"repro/internal/convex"
	"repro/internal/core"
	"repro/internal/dataio"
	"repro/internal/dataset"
	"repro/internal/erm"
	"repro/internal/sample"
	"repro/internal/universe"
	"repro/internal/workload"
)

// synthCmd trains the PMW hypothesis on a query workload under the
// requested (ε, δ) budget and writes a differentially private synthetic
// dataset as CSV.
//
// Two universe shapes are supported. The default is a labeled grid fed
// from a numeric CSV of records (featureDim feature columns plus one label
// column), trained on random halfspace counting queries. With -hypercube D
// the universe is the ±1/√D product hypercube instead — factorable, so D
// can exceed the dense-enumeration limit (up to 52): past d = 22 the server
// runs the factored engine, training on width-w marginal or parity
// workloads never materializes the 2^D universe, and memory stays
// proportional to the query supports, not |X|. A halfspace workload spans
// every coordinate, so past d = 22 it is rejected as too large.
func synthCmd(args []string) error {
	fs := flag.NewFlagSet("synth", flag.ContinueOnError)
	inPath := fs.String("in", "-", "input CSV of records (features..., label); '-' = stdin")
	outPath := fs.String("out", "-", "output CSV of synthetic records; '-' = stdout")
	dim := fs.Int("dim", 2, "number of feature columns (grid mode)")
	levels := fs.Int("levels", 3, "grid levels per feature coordinate")
	labels := fs.Int("labels", 3, "grid levels for the label")
	featR := fs.Float64("featradius", 1.0, "feature ball radius")
	labelR := fs.Float64("labelradius", 1.0, "label range half-width")
	hyper := fs.Int("hypercube", 0, "use the ±1/√D product hypercube of this dimension instead of a labeled grid (≤ 52; past d = 22 it runs factored and needs a marginal or parity workload)")
	gen := fs.Int("gen", 0, "generate this many uniform random input rows instead of reading -in (hypercube mode)")
	wl := fs.String("workload", "halfspace", "training workload: halfspace, marginal, parity")
	width := fs.Int("width", 2, "marginal/parity width")
	eps := fs.Float64("eps", 1.0, "privacy budget ε")
	delta := fs.Float64("delta", 1e-6, "privacy budget δ")
	alpha := fs.Float64("alpha", 0.01, "excess-risk accuracy target per training query")
	queries := fs.Int("queries", 100, "number of training queries")
	rows := fs.Int("rows", 10000, "number of synthetic rows to release")
	tBudget := fs.Int("tbudget", 15, "MW update horizon (0 = paper worst case)")
	seed := fs.Int64("seed", 1, "random seed")
	header := fs.Bool("header", false, "input CSV has a header row")
	if err := fs.Parse(args); err != nil {
		return err
	}

	var u universe.Universe
	if *hyper > 0 {
		h, err := universe.NewProductHypercube(*hyper)
		if err != nil {
			return err
		}
		u = h
	} else {
		g, err := universe.NewLabeledGrid(*dim, *levels, *featR, *labels, *labelR)
		if err != nil {
			return err
		}
		u = g
	}

	src := sample.New(*seed)
	var data *dataset.Dataset
	if *gen > 0 {
		if *hyper <= 0 {
			return fmt.Errorf("-gen requires -hypercube")
		}
		genSrc := src.Split()
		rws := make([]int, *gen)
		for i := range rws {
			rws[i] = genSrc.Intn(u.Size())
		}
		var err error
		if data, err = dataset.New(u, rws); err != nil {
			return err
		}
	} else {
		var in io.Reader = os.Stdin
		if *inPath != "-" {
			f, err := os.Open(*inPath)
			if err != nil {
				return err
			}
			defer f.Close()
			in = f
		}
		var err error
		if data, err = dataio.LoadCSV(in, u, *header); err != nil {
			return err
		}
	}

	srv, err := core.New(core.Config{
		Eps: *eps, Delta: *delta,
		Alpha: *alpha, Beta: 0.05,
		K: *queries, S: 1,
		Oracle:  erm.LaplaceLinear{},
		TBudget: *tBudget,
	}, data, src.Split())
	if err != nil {
		return err
	}

	var train []*convex.LinearQuery
	switch *wl {
	case "halfspace":
		train, err = workload.Halfspaces(src.Split(), u, *queries)
	case "marginal":
		train, err = workload.Marginals(u.Dim(), *width, *queries)
	case "parity":
		train, err = workload.RandomParities(src.Split(), u.Dim(), *width, *queries)
	default:
		err = fmt.Errorf("unknown -workload %q (have halfspace, marginal, parity)", *wl)
	}
	if err != nil {
		return err
	}
	for _, q := range train {
		if _, err := srv.Answer(q); err == core.ErrHalted {
			break
		} else if err != nil {
			return err
		}
	}

	synth, err := srv.SyntheticRows(src.Split(), *rows)
	if err != nil {
		return err
	}
	var out io.Writer = os.Stdout
	if *outPath != "-" {
		f, err := os.Create(*outPath)
		if err != nil {
			return err
		}
		defer f.Close()
		out = f
	}
	cols := make([]string, u.Dim())
	for i := range cols {
		cols[i] = fmt.Sprintf("x%d", i)
	}
	if g, ok := u.(*universe.LabeledGrid); ok {
		cols[g.Dim()-1] = "y"
	}
	if err := dataio.StoreCSV(out, synth, cols); err != nil {
		return err
	}
	fmt.Fprintf(os.Stderr, "pmwcm synth: %d input rows → %d synthetic rows; engine %s; %d/%d MW updates; privacy ≤ (ε=%.3g, δ=%.3g)\n",
		data.N(), synth.N(), srv.EngineName(), srv.Updates(), srv.Params().T, srv.Privacy().Eps, srv.Privacy().Delta)
	return nil
}
