// Command pmwcm runs the reproduction experiments for "Private
// Multiplicative Weights Beyond Linear Queries" (Ullman, PODS 2015).
//
// Usage:
//
//	pmwcm list                 # show all experiments
//	pmwcm run all              # run every experiment
//	pmwcm run T1.LIN F2.SV     # run selected experiments
//	pmwcm run -quick -seed 7 all
//	pmwcm run -csv T1.LIN      # emit CSV instead of an aligned table
//	pmwcm serve -addr :8787    # serve the interactive query API
//	pmwcm serve -state-dir st  # …with durable sessions across restarts
//	pmwcm loadtest -duration 5 # drive a running serve with a load scenario
//	pmwcm version              # print the build's version and VCS revision
//
// Each experiment prints a table plus the paper's predicted shape. The
// serve subcommand hosts the session-based HTTP/JSON query API of
// internal/service; with -state-dir every session checkpoints its budget
// state through internal/persist and survives restarts, and every serve
// exposes metrics on GET /metrics plus structured request logs
// (-log-level, -log-format) through internal/obs. The loadtest
// subcommand replays a configurable workload mix (internal/loadgen)
// against a running serve and emits a latency/throughput/cache-hit JSON
// report — CI runs it as the load smoke gate, with -check-metrics
// asserting the server's own counters agree with the client report. See
// DESIGN.md for the package inventory and README.md for a worked curl
// session, the serve operations guide, and the loadtest guide.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"strings"

	"repro/internal/expts"
	"repro/internal/mech"
	"repro/internal/obs"
)

func main() {
	if len(os.Args) < 2 {
		usage()
		os.Exit(2)
	}
	switch os.Args[1] {
	case "list":
		for _, e := range expts.All() {
			fmt.Printf("%-10s %s\n", e.ID, e.Title)
		}
		fmt.Printf("\naccountants: %s (default %s)\n",
			strings.Join(mech.AccountantNames(), ", "), mech.DefaultAccountant)
	case "run":
		if err := runCmd(os.Args[2:], os.Stdout); err != nil {
			fmt.Fprintln(os.Stderr, "pmwcm:", err)
			os.Exit(1)
		}
	case "synth":
		if err := synthCmd(os.Args[2:]); err != nil {
			fmt.Fprintln(os.Stderr, "pmwcm:", err)
			os.Exit(1)
		}
	case "serve":
		if err := serveCmd(os.Args[2:]); err != nil {
			fmt.Fprintln(os.Stderr, "pmwcm:", err)
			os.Exit(1)
		}
	case "loadtest":
		if err := loadtestCmd(os.Args[2:]); err != nil {
			fmt.Fprintln(os.Stderr, "pmwcm:", err)
			os.Exit(1)
		}
	case "store":
		if err := storeCmd(os.Args[2:]); err != nil {
			fmt.Fprintln(os.Stderr, "pmwcm:", err)
			os.Exit(1)
		}
	case "route":
		if err := routeCmd(os.Args[2:]); err != nil {
			fmt.Fprintln(os.Stderr, "pmwcm:", err)
			os.Exit(1)
		}
	case "version", "-version", "--version":
		fmt.Println(obs.Version().String())
	case "-h", "--help", "help":
		usage()
	default:
		fmt.Fprintf(os.Stderr, "pmwcm: unknown command %q\n", os.Args[1])
		usage()
		os.Exit(2)
	}
}

func usage() {
	fmt.Fprintln(os.Stderr, `usage:
  pmwcm list
  pmwcm run [-seed N] [-quick] [-csv] [-accountant NAME] (all | ID...)
  pmwcm synth [-in data.csv] [-out synth.csv] [-dim D] [-levels L] [-labels M]
              [-eps E] [-delta D] [-alpha A] [-queries K] [-rows N] [-seed S]
  pmwcm serve [-addr :8787] [-data data.csv] [-dim D] [-levels L] [-labels M]
              [-eps E] [-delta D] [-alpha A] [-k K] [-oracle NAME]
              [-accountant NAME] [-maxsessions N] [-seed S]
              [-state-dir DIR | -store-url http://h:9099/v1/stores/NAME]
              [-compact-every N] [-max-resident N] [-idle-ttl D]
              [-log-level info] [-log-format text|json]
  pmwcm loadtest [-url http://127.0.0.1:8787] [-urls u1,u2,...] [-scenario file.json]
              [-mode closed|open|churn] [-duration SEC] [-sessions N]
              [-concurrency C] [-rate R] [-batch B] [-hot RATIO]
              [-hotkeys H] [-accountants a,b] [-k K] [-out report.json]
              [-min-hits N] [-max-5xx N] [-check-metrics] [-metrics-urls u1,u2,...]
  pmwcm store [-addr :9099] -dir DIR
  pmwcm route [-addr :9100] -replicas r1=http://h1:8787,r2=http://h2:8787
              [-store-url http://h:9099] [-timeout D] [-retry-after D]
              [-log-level info] [-log-format text|json]
  pmwcm version

run, synth and serve spread each universe-sized computation over
GOMAXPROCS cores (default: all); set the GOMAXPROCS environment variable
to use fewer. Answers are bit-identical for every value.`)
}

func runCmd(args []string, stdout io.Writer) error {
	fs := flag.NewFlagSet("run", flag.ContinueOnError)
	seed := fs.Int64("seed", 1, "random seed for the experiment sweep")
	quick := fs.Bool("quick", false, "reduced sweeps (for smoke testing)")
	csv := fs.Bool("csv", false, "emit CSV instead of aligned tables")
	accountant := fs.String("accountant", "", "privacy accountant ("+strings.Join(mech.AccountantNames(), ", ")+"; empty = "+mech.DefaultAccountant+")")
	if err := fs.Parse(args); err != nil {
		return err
	}
	ids := fs.Args()
	if len(ids) == 0 {
		return fmt.Errorf("no experiments named; try 'pmwcm run all'")
	}
	// The flag package stops parsing at the first id, so a flag after it
	// would be taken for an id.
	for _, id := range ids {
		if strings.HasPrefix(id, "-") {
			return fmt.Errorf("flag %s follows the experiment ids; flags go before them: pmwcm run [flags] (all | ID...)", id)
		}
	}
	var selected []expts.Experiment
	if len(ids) == 1 && ids[0] == "all" {
		selected = expts.All()
	} else {
		for _, id := range ids {
			e, ok := expts.ByID(id)
			if !ok {
				return fmt.Errorf("unknown experiment %q (see 'pmwcm list')", id)
			}
			selected = append(selected, e)
		}
	}
	cfg := expts.RunConfig{Seed: *seed, Quick: *quick, Accountant: *accountant}
	for _, e := range selected {
		tbl, err := e.Run(cfg)
		if err != nil {
			return fmt.Errorf("%s: %w", e.ID, err)
		}
		if *csv {
			if err := tbl.CSV(stdout); err != nil {
				return err
			}
			fmt.Fprintln(stdout)
		} else if err := tbl.Write(stdout); err != nil {
			return err
		}
	}
	return nil
}
