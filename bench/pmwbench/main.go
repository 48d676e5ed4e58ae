// Command pmwbench is the repository's end-to-end benchmark for the PMW
// query server. For one workload and one workload seed it deploys the
// real server processes (pmwcm serve, or a store, replicas and a router),
// drives them with closed-loop analysts over at most two connections,
// checks every released answer against a single-threaded replay of the
// same query streams through core.Server, and reports the end-to-end
// metrics. With -trace 1 it runs the same workload in process, with timing
// wrappers at each layer's public seams, and reports per-layer metrics.
//
// Usage, from the repository root:
//
//	bash bench/run.sh --workload miss_small --seed 1 --seconds 10 --trace 0
//	bash bench/run.sh compare 'bench/out/parent/*.json' 'bench/out/change/*.json'
//
// Every metric is printed as "workload metric value unit"; the last line
// of standard output is one JSON object with the keys correct, attempted,
// failed and metrics. The full result, with details and answer digests,
// is written under bench/out.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"syscall"
	"time"
)

func main() {
	if len(os.Args) > 1 && os.Args[1] == "compare" {
		if err := compareCmd(os.Args[2:]); err != nil {
			fmt.Fprintln(os.Stderr, "pmwbench compare:", err)
			os.Exit(1)
		}
		return
	}
	if err := benchCmd(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "pmwbench:", err)
		os.Exit(1)
	}
}

// Paths relative to the repository root, where the benchmark runs.
const (
	buildDir     = ".bench_build"        // pmwcm binary and the servers' state directories
	outDir       = "bench/out"           // result and trace files
	baselinePath = "bench/baseline.json" // recorded seed-1 answer digests
)

// runDeadline bounds a whole invocation, building excluded.
const runDeadline = 150 * time.Second

func benchCmd(args []string) error {
	fs := flag.NewFlagSet("pmwbench", flag.ContinueOnError)
	name := fs.String("workload", "", "workload to run: miss_small, miss_large, hot_mixed, fleet_churn")
	seed := fs.Int64("seed", 1, "workload seed: picks every session's query stream")
	seconds := fs.Float64("seconds", 10, "load time to measure; whole rounds run until it is used up")
	trace := fs.Int("trace", 0, "1 runs the traced in-process run and reports per-layer metrics")
	if err := fs.Parse(args); err != nil {
		return err
	}
	w, err := workloadByName(*name)
	if err != nil {
		return err
	}
	if *trace != 0 && *trace != 1 {
		return fmt.Errorf("-trace must be 0 or 1")
	}
	if err := os.MkdirAll(buildDir, 0o755); err != nil {
		return err
	}
	runDir, err := os.MkdirTemp(buildDir, "run-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(runDir)
	bin := ""
	if *trace == 0 {
		if bin, err = buildPMWCM(".", runDir); err != nil {
			return err
		}
	}
	ctx, cancel := context.WithTimeout(context.Background(), runDeadline)
	defer cancel()
	ctx, stop := signal.NotifyContext(ctx, os.Interrupt, syscall.SIGTERM)
	defer stop()
	r, err := newRunner(w, *seed, runDir, bin)
	if err != nil {
		return err
	}
	var out *outcome
	var rep *report
	var declared []metricDef
	if *trace == 0 {
		if out, err = r.runProcesses(ctx, *seconds); err != nil {
			return err
		}
		rep, declared = endToEndReport(w, out), endToEnd
	} else {
		if out, err = r.runTraced(ctx, *seconds); err != nil {
			return err
		}
		rep, declared = layerReport(w, out, r.tr), perLayer
	}
	if *seed == 1 && runtime.GOARCH == "amd64" {
		want, err := recordedDigests(baselinePath, w.name)
		if err != nil {
			return err
		}
		out.checkRecorded(want)
	}
	if err := os.MkdirAll(outDir, 0o755); err != nil {
		return err
	}
	if r.tr != nil {
		path := filepath.Join(outDir, "trace-"+w.name+".json")
		if err := r.tr.writeTrace(path, w.name, *seed, allOps(out.rounds)); err != nil {
			return err
		}
	}
	res := result{
		Workload: w.name, Seed: *seed, Trace: *trace, Seconds: *seconds,
		Correct: out.correct(), Attempted: out.attempted, Failed: out.failed,
		Metrics: map[string]metric{}, Details: rep.details, Problems: out.problems,
		Digests: out.digests(), Host: hostInfo(), Time: time.Now().UTC().Format(time.RFC3339),
	}
	for _, d := range declared {
		res.Metrics[d.name] = rep.metrics[d.name]
	}
	for _, p := range out.problems {
		fmt.Fprintln(os.Stderr, "check failed:", p)
	}
	if err := res.write(outDir); err != nil {
		return err
	}
	res.print(os.Stdout)
	return nil
}

// result is one invocation's record: the last stdout line holds its first
// four fields, and the file under -out all of it.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
	Workload  string            `json:"workload"`
	Seed      int64             `json:"seed"`
	Trace     int               `json:"trace"`
	Seconds   float64           `json:"seconds"`
	Details   map[string]metric `json:"details"`
	Problems  []string          `json:"problems,omitempty"`
	Digests   map[string]string `json:"digests"`
	Host      map[string]string `json:"host"`
	Time      string            `json:"time"`
}

func (res *result) write(dir string) error {
	data, err := json.MarshalIndent(res, "", "  ")
	if err != nil {
		return err
	}
	name := fmt.Sprintf("%s-seed%d-trace%d-%d.json", res.Workload, res.Seed, res.Trace, time.Now().UnixNano())
	return os.WriteFile(filepath.Join(dir, name), data, 0o644)
}

func (res *result) print(f *os.File) {
	var lines []string
	for name, m := range res.Details {
		if _, declared := res.Metrics[name]; declared {
			continue
		}
		lines = append(lines, fmt.Sprintf("%s %s %.6g %s", res.Workload, name, m.Value, m.Unit))
	}
	sort.Strings(lines)
	var declared []string
	for name, m := range res.Metrics {
		declared = append(declared, fmt.Sprintf("%s %s %.6g %s", res.Workload, name, m.Value, m.Unit))
	}
	sort.Strings(declared)
	for _, l := range append(lines, declared...) {
		fmt.Fprintln(f, l)
	}
	last, _ := json.Marshal(struct {
		Correct   bool              `json:"correct"`
		Attempted int               `json:"attempted"`
		Failed    int               `json:"failed"`
		Metrics   map[string]metric `json:"metrics"`
	}{res.Correct, res.Attempted, res.Failed, res.Metrics})
	fmt.Fprintln(f, string(last))
}

// recordedDigests reads the seed-1 answer digests baseline.json records
// for a workload (measured on amd64).
func recordedDigests(path, workload string) (map[string]string, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var b struct {
		Digests map[string]map[string]string `json:"digests_seed_1"`
	}
	if err := json.Unmarshal(data, &b); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return b.Digests[workload], nil
}

// hostInfo names the machine a result was measured on.
func hostInfo() map[string]string {
	h := map[string]string{
		"nproc": fmt.Sprint(runtime.NumCPU()),
		"go":    runtime.Version(),
		"arch":  runtime.GOOS + "/" + runtime.GOARCH,
	}
	if data, err := os.ReadFile("/proc/cpuinfo"); err == nil {
		for _, line := range strings.Split(string(data), "\n") {
			if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
				h["cpu"] = strings.TrimSpace(v)
				break
			}
		}
	}
	return h
}
