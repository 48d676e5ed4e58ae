package main

import (
	"context"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"time"

	"repro/internal/xeval"
)

// round is one deployment's fixed work and what was measured on it.
type round struct {
	setup    float64 // s from the first launch until every session of the round exists
	seconds  float64 // s of load
	cpuTicks int64   // server CPU spent during the load (process rounds)
	rssKB    int64   // largest server VmHWM (process rounds)
	// slowdown is how much slower than on the idle reference host the
	// host ran during the round (see calib.go).
	slowdown float64
	*load
}

// runner executes one workload at one seed.
type runner struct {
	w    *workload
	seed int64
	dir  string      // working directory for state directories, inside the checkout
	bin  string      // pmwcm binary; empty runs the servers in process
	tr   *tracer     // traced in-process rounds
	cal  *calibrator // samples the host's speed during end-to-end runs
	// minRequests is the fewest query requests an end-to-end run
	// measures, so that its p90 has ten samples beyond it.
	minRequests int
}

func newRunner(w *workload, seed int64, dir, bin string) (*runner, error) {
	return &runner{w: w, seed: seed, dir: dir, bin: bin, minRequests: 100}, nil
}

func (r *runner) deploy(ctx context.Context, dir string) (*system, error) {
	if r.bin != "" {
		return deployProcs(ctx, r.w, r.bin, dir)
	}
	return deployInProc(r.w, dir, r.tr)
}

// rounds runs whole rounds until their load time comes nearest to seconds:
// another round starts only while the time still missing exceeds half the
// last round, or fewer than minRequests query requests were measured.
// last, when set, runs on the final round's live deployment.
func (r *runner) rounds(ctx context.Context, seconds float64, minRequests int, last func(*system, []string) error) ([]*round, error) {
	var out []*round
	var total float64
	var requests int
	for i := 0; ; i++ {
		dir := filepath.Join(r.dir, fmt.Sprintf("round-%d", i))
		rd, sys, ids, err := r.round(ctx, dir, i)
		done := false
		if err == nil {
			total += rd.seconds
			requests += len(latencies(rd.ops, isQuery))
			done = total+rd.seconds/2 >= seconds && requests >= minRequests
			if done && last != nil {
				err = last(sys, ids)
			}
			sys.close()
		}
		os.RemoveAll(dir)
		if err != nil {
			return nil, err
		}
		out = append(out, rd)
		if done {
			return out, nil
		}
	}
}

// setUp deploys a fresh system and creates the round's long-lived
// sessions in order. It returns the running system, a loader for it, the
// sessions' ids and create operations, and the seconds it took.
func (r *runner) setUp(ctx context.Context, dir string, i int) (sys *system, d *loader, ids []string, creates []op, seconds float64, err error) {
	start := time.Now()
	if sys, err = r.deploy(ctx, dir); err != nil {
		return nil, nil, nil, nil, 0, err
	}
	d = newLoader(sys.url, fmt.Sprintf("r%d", i))
	if r.w.fleet == nil {
		for s := 0; s < r.w.sessions; s++ {
			id, o, err := d.create(ctx, r.w.params)
			if err != nil {
				d.closeIdle()
				sys.close()
				return nil, nil, nil, nil, 0, fmt.Errorf("creating session %d: %w", s, err)
			}
			ids = append(ids, id)
			creates = append(creates, o)
		}
	}
	return sys, d, ids, creates, time.Since(start).Seconds(), nil
}

// round sets a fresh system up and runs the fixed load. It returns the
// system still running, with the ids of the round's long-lived sessions;
// the caller closes it.
func (r *runner) round(ctx context.Context, dir string, i int) (rd *round, sys *system, ids []string, err error) {
	var fleetIDs [][]string
	if r.w.fleet != nil {
		if fleetIDs, err = r.w.fleetIDs(i); err != nil {
			return nil, nil, nil, err
		}
	}
	start := time.Now()
	live, d, ids, creates, setup, err := r.setUp(ctx, dir, i)
	if err != nil {
		return nil, nil, nil, err
	}
	defer d.closeIdle()
	defer func() {
		if err != nil {
			live.close()
		}
	}()
	sys = live
	rd = &round{setup: setup}
	cpu0, err := sys.cpuTicks()
	if err != nil {
		return nil, nil, nil, err
	}
	loadStart := time.Now()
	if r.w.fleet != nil {
		rd.load = d.runChurn(ctx, r.w, r.seed, i, fleetIDs)
	} else {
		rd.load = d.runClosed(ctx, r.w, r.seed, ids)
	}
	rd.seconds = time.Since(loadStart).Seconds()
	rd.slowdown = 1
	if r.cal != nil {
		rd.slowdown = r.cal.slowdown(start, time.Now())
	}
	cpu1, err := sys.cpuTicks()
	if err != nil {
		return nil, nil, nil, err
	}
	rd.cpuTicks = cpu1 - cpu0
	if rd.rssKB, err = sys.peakRSSKB(); err != nil {
		return nil, nil, nil, err
	}
	rd.ops = append(creates, rd.ops...)
	if err = ctx.Err(); err != nil {
		return nil, nil, nil, err
	}
	return rd, sys, ids, nil
}

// minSetups is the fewest set-ups an end-to-end run times; setup_s is
// their median.
const minSetups = 5

// setupTime is one timed set-up and the host's slowdown during it.
type setupTime struct{ seconds, slowdown float64 }

// extraSetups sets the system up and tears it down again, without load,
// until the run has timed minSetups set-ups.
func (r *runner) extraSetups(ctx context.Context, done int) ([]setupTime, error) {
	var out []setupTime
	for i := done; i < minSetups; i++ {
		dir := filepath.Join(r.dir, fmt.Sprintf("setup-%d", i))
		start := time.Now()
		sys, d, _, _, seconds, err := r.setUp(ctx, dir, i)
		if err != nil {
			return nil, err
		}
		d.closeIdle()
		sys.close()
		os.RemoveAll(dir)
		out = append(out, setupTime{seconds, r.cal.slowdown(start, time.Now())})
	}
	return out, nil
}

// recovery is the miss_small restart check: SIGKILL the server, start it
// again on the same state directory, and send each session one more query.
type recovery struct {
	seconds float64 // from the restart until every session has answered
	answers map[sessionKey]answer
	ops     []op
}

func (r *runner) recover(ctx context.Context, sys *system, ids []string) (*recovery, error) {
	start := time.Now()
	p, err := sys.procs[0].restart(ctx)
	if err != nil {
		return nil, err
	}
	sys.procs[0] = p
	d := newLoader(p.url, "recovery")
	defer d.closeIdle()
	rec := &recovery{answers: map[sessionKey]answer{}}
	var mu sync.Mutex
	var wg sync.WaitGroup
	for i, id := range ids {
		wg.Add(1)
		go func(k sessionKey, id string) {
			defer wg.Done()
			sp := r.w.stream(r.seed, k, r.w.queries+1)[r.w.queries]
			a, o, err := d.query(ctx, id, sp)
			mu.Lock()
			defer mu.Unlock()
			rec.ops = append(rec.ops, o)
			if err == nil {
				rec.answers[k] = a
			}
		}(sessionKey{worker: i}, id)
	}
	wg.Wait()
	rec.seconds = time.Since(start).Seconds()
	return rec, nil
}

// outcome is everything one invocation measured and checked.
type outcome struct {
	rounds    []*round
	setups    []setupTime // set-ups timed without load
	recovery  *recovery
	untraced  []*round // trace runs: the in-process rounds without wrappers
	replayed  map[sessionKey][]answer
	problems  []string
	attempted int
	failed    int
}

func (o *outcome) correct() bool { return len(o.problems) == 0 && o.failed == 0 }

// runProcesses is the end-to-end run: real server processes, no tracing.
func (r *runner) runProcesses(ctx context.Context, seconds float64) (*outcome, error) {
	out := &outcome{}
	var last func(*system, []string) error
	if r.w.recovery {
		last = func(sys *system, ids []string) error {
			rec, err := r.recover(ctx, sys, ids)
			out.recovery = rec
			return err
		}
	}
	r.cal = startCalibrator()
	rounds, err := r.rounds(ctx, seconds, r.minRequests, last)
	if err == nil {
		out.setups, err = r.extraSetups(ctx, len(rounds))
	}
	r.cal.close()
	if err != nil {
		return nil, err
	}
	out.rounds = rounds
	n := r.w.streamLen()
	if r.w.recovery {
		n++
	}
	if out.replayed, err = replay(r.w, r.seed, n, r.w.runKeys(len(rounds)), nil); err != nil {
		return nil, err
	}
	out.check(r.w)
	return out, nil
}

// runTraced is the per-layer run, in process: half the time without
// wrappers, half with them, then the core replay under the tracer.
func (r *runner) runTraced(ctx context.Context, seconds float64) (*outcome, error) {
	out := &outcome{}
	var err error
	if out.untraced, err = r.rounds(ctx, seconds/2, 0, nil); err != nil {
		return nil, err
	}
	r.tr = newTracer()
	if out.rounds, err = r.rounds(ctx, seconds/2, 0, nil); err != nil {
		return nil, err
	}
	xeval.SetObserver(r.tr.sweepObserver)
	keys := r.w.runKeys(max(len(out.untraced), len(out.rounds)))
	out.replayed, err = replay(r.w, r.seed, r.w.streamLen(), keys, r.tr)
	xeval.SetObserver(nil)
	if err != nil {
		return nil, err
	}
	out.check(r.w)
	return out, nil
}

// check compares every round's answers with the replay and counts
// operations.
func (o *outcome) check(w *workload) {
	for _, rds := range [][]*round{o.untraced, o.rounds} {
		for i, rd := range rds {
			for _, p := range checkAnswers(w, i, rd.sessions, o.replayed) {
				o.problems = append(o.problems, fmt.Sprintf("round %d: %s", i, p))
			}
			for _, e := range rd.errs {
				o.problems = append(o.problems, fmt.Sprintf("round %d: %v", i, e))
			}
			o.count(rd.ops)
		}
	}
	if o.recovery == nil {
		return
	}
	o.count(o.recovery.ops)
	for _, k := range w.keys(0) {
		got, ok := o.recovery.answers[k]
		want := o.replayed[k][w.queries]
		if !ok || digest([]answer{got}) != digest([]answer{want}) {
			o.problems = append(o.problems, fmt.Sprintf("session %s after restart: answer %c%v, replay gives %c%v", k, got.disp, got.vals, want.disp, want.vals))
		}
	}
}

func (o *outcome) count(ops []op) {
	for _, op := range ops {
		o.attempted++
		if !op.ok {
			o.failed++
		}
	}
}

// checkRecorded compares the first round's digests with recorded ones; a
// session missing on either side is a problem too, so a stale record shows.
func (o *outcome) checkRecorded(want map[string]string) {
	got := o.digests()
	for k, d := range want {
		if got[k] != d {
			o.problems = append(o.problems, fmt.Sprintf("session %s: answer digest %s, recorded for this seed %s", k, got[k], d))
		}
	}
	for k := range got {
		if _, ok := want[k]; !ok {
			o.problems = append(o.problems, fmt.Sprintf("session %s: no digest recorded for this seed", k))
		}
	}
}

// digests reports each session's answer digest from the first round.
func (o *outcome) digests() map[string]string {
	out := map[string]string{}
	rds := o.rounds
	if len(o.untraced) > 0 {
		rds = o.untraced
	}
	if len(rds) == 0 {
		return out
	}
	for _, sl := range rds[0].sessions {
		out[sl.key.String()] = digest(sl.answers)
	}
	return out
}
