// Package drill is the crash-schedule drill harness over the fault seam:
// it runs a deterministic durable query workload once on a tracing
// filesystem to enumerate every durability syscall (the fault points),
// then replays seeded schedules that each inject one fault — transient
// error, torn write, or a crash latched at an arbitrary syscall — abandon
// the "dead" manager, recover from disk through a clean filesystem, and
// check the persistence invariants the privacy proof rests on:
//
//   - recovery always succeeds (ledger re-verification and WAL replay
//     included — service.New performs both),
//   - a session whose creation was acknowledged is restored,
//   - every ⊤ answer released to the analyst is on disk: the restored
//     transcript holds its event, bit-identical (write-ahead rule — the
//     spend an answer was paid for can never be lost),
//   - any restored event whose answer was released matches it bit for
//     bit: a ⊥-only tail may be lost to the crash, but nothing is ever
//     silently wrong,
//   - the restored session keeps serving (or refuses cleanly with a
//     budget error).
//
// Schedules are pure functions of (seed, schedule index), so a CI failure
// reproduces locally from the seed alone.
package drill

import (
	"encoding/json"
	"errors"
	"fmt"
	"os"

	"repro/internal/convex"
	"repro/internal/dataset"
	"repro/internal/fault"
	"repro/internal/persist"
	"repro/internal/sample"
	"repro/internal/service"
	"repro/internal/universe"
)

// Options shapes the drill workload. Zero values select defaults sized so
// one schedule runs in well under a second.
type Options struct {
	// DataSeed and SrcSeed seed the fixture dataset and the manager's
	// session noise source (defaults 1 and 9).
	DataSeed, SrcSeed int64
	// Queries is the length of the per-schedule query script (default 12).
	Queries int
	// CompactEvery folds the session WAL after this many records
	// (default 4 — small, so schedules exercise compaction too).
	CompactEvery int
}

// withDefaults fills zero fields.
func (o Options) withDefaults() Options {
	if o.DataSeed == 0 {
		o.DataSeed = 1
	}
	if o.SrcSeed == 0 {
		o.SrcSeed = 9
	}
	if o.Queries == 0 {
		o.Queries = 12
	}
	if o.CompactEvery == 0 {
		o.CompactEvery = 4
	}
	return o
}

// released is one answer the analyst actually received before the
// schedule's crash: the client-visible bits the restored state must never
// contradict.
type released struct {
	index  int // 1-based transcript index (QueriesUsed after the query)
	top    bool
	answer []float64
}

// ScheduleResult reports one seeded schedule.
type ScheduleResult struct {
	// Seed derives the schedule; Fault is the injection it selected.
	Seed  int64
	Fault fault.Fault
	// Fired counts injections that actually hit (0 = the op index was past
	// the run's end, so the schedule degenerated to crash-at-end).
	Fired int
	// Crashed reports the schedule latched the filesystem dead.
	Crashed bool
	// Released and TopsReleased count answers (and ⊤ answers) the analyst
	// received before the crash.
	Released     int
	TopsReleased int
	// Failure is the first invariant violation, empty when all held.
	Failure string
}

// Report is one drill run: the clean-run fault-point enumeration plus
// every schedule's outcome.
type Report struct {
	// Window is the op count of the clean run's query phase — the index
	// range schedules draw fault points from.
	Window int
	// WritePoints counts distinct write-path fault points (write, sync,
	// create, open, rename, truncate ops) in the window.
	WritePoints int
	// Results holds one entry per schedule, in seed order.
	Results []ScheduleResult
	// Failures counts schedules whose Failure is non-empty.
	Failures int
}

// drillSpec returns the i-th query of the script: every spec is distinct
// (no cache hits), alternating loss families so the stream mixes ⊥ and ⊤
// dispositions the way a real analyst would.
func drillSpec(i int) convex.Spec {
	if i%2 == 0 {
		return convex.Spec{
			Kind:   "halfspace",
			Params: json.RawMessage(fmt.Sprintf(`{"w":[1,0,0],"threshold":%g}`, 0.001*float64(i+1))),
		}
	}
	return convex.Spec{
		Kind:   "logistic",
		Params: json.RawMessage(fmt.Sprintf(`{"temp":%g}`, 0.4+0.01*float64(i))),
	}
}

// buildData rebuilds the fixture dataset from its seed — the same dataset
// for the crashed run and the recovery, as a restarted server would have.
func buildData(seed int64) (*dataset.Dataset, error) {
	g, err := universe.NewLabeledGrid(2, 3, 1.0, 3, 1.0)
	if err != nil {
		return nil, err
	}
	pop, err := dataset.Skewed(g, 1.3)
	if err != nil {
		return nil, err
	}
	return dataset.SampleFrom(sample.New(seed), pop, 20000), nil
}

// manager builds a durable manager over the store.
func (o Options) manager(data *dataset.Dataset, st *persist.Store) (*service.Manager, error) {
	return service.New(service.Config{
		Data:   data,
		Source: sample.New(o.SrcSeed),
		Defaults: service.SessionParams{
			Eps: 1, Delta: 1e-6, Alpha: 0.1,
			K: 2*o.Queries + 4, TBudget: o.Queries,
		},
		Store:        st,
		CompactEvery: o.CompactEvery,
	})
}

// runScript drives the workload over an injecting store: create a session,
// issue the script, and record what the analyst saw. Any step may die on
// an injected fault; the function returns what was released before that.
// The manager is abandoned, never shut down — the schedule's premise is
// that the process crashed.
func (o Options) runScript(data *dataset.Dataset, dir string, plan *fault.Plan) (id string, rel []released) {
	st, err := persist.OpenFS(dir, fault.Wrap(fault.OS, plan))
	if err != nil {
		return "", nil
	}
	mgr, err := o.manager(data, st)
	if err != nil {
		return "", nil
	}
	sess, err := mgr.CreateSession(service.SessionParams{})
	if err != nil {
		return "", nil
	}
	for i := 0; i < o.Queries; i++ {
		res, err := sess.Query(drillSpec(i))
		if err != nil {
			if plan.Crashed() {
				break // the process is dead; nothing further is served
			}
			continue // transient fault: answer withheld, session lives on
		}
		if res.Cached {
			continue // defensive: the script is cache-miss-only by design
		}
		rel = append(rel, released{
			index:  res.QueriesUsed,
			top:    res.Top,
			answer: append([]float64(nil), res.Answer...),
		})
	}
	return sess.ID(), rel
}

// recoverAndCheck restarts over the schedule's state directory with a
// clean filesystem and checks every invariant against what was released.
func (o Options) recoverAndCheck(data *dataset.Dataset, dir, id string, rel []released) error {
	st, err := persist.Open(dir)
	if err != nil {
		return fmt.Errorf("reopening store: %w", err)
	}
	mgr, err := o.manager(data, st)
	if err != nil {
		return fmt.Errorf("recovery failed: %w", err)
	}
	defer mgr.Shutdown()
	if id == "" {
		// The crash predates an acknowledged session; recovery just has to
		// come up (checked above), with whatever partial state was on disk.
		return nil
	}
	sess, err := mgr.Session(id)
	if err != nil {
		return fmt.Errorf("acknowledged session %s not restored: %w", id, err)
	}
	raw, err := sess.TranscriptJSON()
	if err != nil {
		return fmt.Errorf("restored transcript unreadable: %w", err)
	}
	var rec service.TranscriptRecord
	if err := json.Unmarshal(raw, &rec); err != nil {
		return fmt.Errorf("restored transcript undecodable: %w", err)
	}
	events := rec.Transcript.Events
	for _, r := range rel {
		if len(events) < r.index {
			if r.top {
				// The write-ahead rule: a ⊤ answer is only released after its
				// record is durable, so it can never be missing after a crash.
				return fmt.Errorf("released ⊤ answer %d lost: restored transcript has %d events", r.index, len(events))
			}
			continue // a ⊥-only tail may be lost; the analyst lost nothing the ledger paid for
		}
		ev := events[r.index-1]
		if ev.Index != r.index {
			return fmt.Errorf("restored event order broken: event at position %d carries index %d", r.index, ev.Index)
		}
		if ev.Top != r.top {
			return fmt.Errorf("event %d restored with disposition top=%v, released top=%v", r.index, ev.Top, r.top)
		}
		if len(ev.Answer) != len(r.answer) {
			return fmt.Errorf("event %d restored with %d-dim answer, released %d-dim", r.index, len(ev.Answer), len(r.answer))
		}
		for j := range ev.Answer {
			if ev.Answer[j] != r.answer[j] {
				return fmt.Errorf("event %d answer[%d] restored as %x, released %x — silently wrong restore", r.index, j, ev.Answer[j], r.answer[j])
			}
		}
	}
	// The restored session must keep serving — or refuse cleanly on
	// budget, never an internal error.
	if _, err := sess.Query(drillSpec(o.Queries)); err != nil && !errors.Is(err, service.ErrBudgetExhausted) {
		return fmt.Errorf("restored session cannot continue: %w", err)
	}
	return nil
}

// runSchedule executes one seeded schedule end to end in its own state
// directory.
func (o Options) runSchedule(data *dataset.Dataset, seed int64, window int) (ScheduleResult, error) {
	dir, err := os.MkdirTemp("", "pmwcm-drill-")
	if err != nil {
		return ScheduleResult{}, err
	}
	defer os.RemoveAll(dir)
	f := fault.Seeded(seed, window)
	plan := fault.NewPlan(f)
	id, rel := o.runScript(data, dir, plan)
	res := ScheduleResult{
		Seed:     seed,
		Fault:    f,
		Fired:    plan.Fired(),
		Crashed:  plan.Crashed(),
		Released: len(rel),
	}
	for _, r := range rel {
		if r.top {
			res.TopsReleased++
		}
	}
	if err := o.recoverAndCheck(data, dir, id, rel); err != nil {
		res.Failure = err.Error()
	}
	return res, nil
}

// Run executes the drill: enumerate fault points on a clean run, then
// replay schedules seeded seed, seed+1, …, seed+schedules-1. The returned
// error covers harness problems only (temp dirs, fixture construction);
// invariant violations land in the Report.
func Run(opts Options, seed int64, schedules int) (*Report, error) {
	o := opts.withDefaults()
	data, err := buildData(o.DataSeed)
	if err != nil {
		return nil, err
	}

	// Clean run on a tracing plan: its op stream is the fault-point
	// enumeration, and its op count the window schedules draw from.
	dir, err := os.MkdirTemp("", "pmwcm-drill-trace-")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(dir)
	plan := fault.NewPlan()
	plan.Tracing = true
	if id, _ := o.runScript(data, dir, plan); id == "" {
		return nil, fmt.Errorf("drill: clean run failed to start")
	}
	rep := &Report{Window: plan.Ops()}
	for _, op := range plan.Trace() {
		switch op.Kind {
		case fault.OpWrite, fault.OpSync, fault.OpCreate, fault.OpOpen, fault.OpRename, fault.OpTruncate:
			rep.WritePoints++
		}
	}

	for i := 0; i < schedules; i++ {
		res, err := o.runSchedule(data, seed+int64(i), rep.Window)
		if err != nil {
			return nil, err
		}
		if res.Failure != "" {
			rep.Failures++
		}
		rep.Results = append(rep.Results, res)
	}
	return rep, nil
}
