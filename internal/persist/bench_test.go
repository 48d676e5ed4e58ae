package persist

// bench_test.go measures the write path the WAL exists to fix. The
// baseline (BenchmarkCheckpointPerTop) is what PR 4's durability paid on
// every ⊤ answer: re-serialize the complete session state — MW table and
// full transcript included — and fsync it. BenchmarkWALAppend is the WAL's
// per-event cost, BenchmarkGroupCommit{1,8,64} the durable-commit cost at
// increasing session concurrency (each session syncs its own log), and
// BenchmarkSnapshotVsWALRecovery the recovery-time read cost of the two
// formats. All run under the benchdiff gate (scripts/bench.sh micro).

import (
	"fmt"
	"sync"
	"testing"

	"repro/internal/core"
	"repro/internal/mw"
	"repro/internal/transcript"
)

// benchState synthesizes a session state with a universe-sized MW table
// and a grown transcript — the shape the per-⊤ checkpoint path serializes
// mid-interaction.
func benchState(id string, cells, events int) *SessionState {
	logw := make([]float64, cells)
	for i := range logw {
		logw[i] = -0.001 * float64(i%97)
	}
	tr := transcript.New(map[string]float64{"T": 12})
	for i := 1; i <= events; i++ {
		ev := *walEvent(i).Event
		tr.Append(ev)
	}
	return &SessionState{
		ID:         id,
		Params:     []byte(`{"k":100000}`),
		Core:       &core.Snapshot{Answered: events, MW: mw.Export{Eta: 0.1, Scale: 2, LogW: logw}},
		Transcript: tr,
	}
}

// BenchmarkCheckpointPerTop is the pre-WAL baseline: one full-state
// atomic write + fsync per ⊤ answer, O(universe + transcript) each.
func BenchmarkCheckpointPerTop(b *testing.B) {
	st, err := Open(b.TempDir())
	if err != nil {
		b.Fatal(err)
	}
	state := benchState("s-000001", 4096, 256)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := st.SaveSession(state); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkWALAppend is the WAL's per-event append cost (no fsync — that
// is WAL.Sync's, measured separately).
func BenchmarkWALAppend(b *testing.B) {
	st, err := Open(b.TempDir())
	if err != nil {
		b.Fatal(err)
	}
	w, err := st.OpenWAL("s-000001")
	if err != nil {
		b.Fatal(err)
	}
	defer w.Close()
	rec := walEvent(1)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := w.Append(rec); err != nil {
			b.Fatal(err)
		}
	}
}

// benchGroupCommit measures the durable cost of one ⊤ record — append +
// WAL.Sync, one fsync of the session's own log — with p sessions
// committing concurrently, as the service's sessions do. b.N counts total
// commits across sessions, so ns/op is directly comparable across the
// 1/8/64 variants: how many fsyncs the drive overlaps is the only thing
// that changes.
func benchGroupCommit(b *testing.B, sessions int) {
	st, err := Open(b.TempDir())
	if err != nil {
		b.Fatal(err)
	}
	wals := make([]*WAL, sessions)
	for i := range wals {
		w, err := st.OpenWAL(fmt.Sprintf("s-%06d", i+1))
		if err != nil {
			b.Fatal(err)
		}
		defer w.Close()
		wals[i] = w
	}
	rec := walEvent(1)
	per := b.N / sessions
	extra := b.N % sessions
	b.ReportAllocs()
	b.ResetTimer()
	var wg sync.WaitGroup
	errc := make(chan error, sessions)
	for i := 0; i < sessions; i++ {
		n := per
		if i < extra {
			n++
		}
		wg.Add(1)
		go func(w *WAL, n int) {
			defer wg.Done()
			for j := 0; j < n; j++ {
				if err := w.Append(rec); err != nil {
					errc <- err
					return
				}
				if err := w.Sync(); err != nil {
					errc <- err
					return
				}
			}
		}(wals[i], n)
	}
	wg.Wait()
	close(errc)
	for err := range errc {
		b.Fatal(err)
	}
}

// BenchmarkGroupCommit1 is one session alone: every commit waits for its
// own fsync, back to back.
func BenchmarkGroupCommit1(b *testing.B) { benchGroupCommit(b, 1) }

// BenchmarkGroupCommit8 is 8 concurrent sessions, each fsyncing its own
// log while the others' fsyncs are in flight.
func BenchmarkGroupCommit8(b *testing.B) { benchGroupCommit(b, 8) }

// BenchmarkGroupCommit64 is 64 concurrent sessions, each fsyncing its own
// log.
func BenchmarkGroupCommit64(b *testing.B) { benchGroupCommit(b, 64) }

// BenchmarkSnapshotVsWALRecovery compares the recovery-time read cost of
// the two on-disk forms of the same 256-event interaction: one compacted
// snapshot vs a snapshot plus a 256-record WAL tail to load.
func BenchmarkSnapshotVsWALRecovery(b *testing.B) {
	const events = 256
	b.Run("snapshot", func(b *testing.B) {
		st, err := Open(b.TempDir())
		if err != nil {
			b.Fatal(err)
		}
		if err := st.SaveSession(benchState("s-000001", 4096, events)); err != nil {
			b.Fatal(err)
		}
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := st.LoadSession("s-000001"); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("snapshot+wal", func(b *testing.B) {
		st, err := Open(b.TempDir())
		if err != nil {
			b.Fatal(err)
		}
		if err := st.SaveSession(benchState("s-000001", 4096, 0)); err != nil {
			b.Fatal(err)
		}
		w, err := st.OpenWAL("s-000001")
		if err != nil {
			b.Fatal(err)
		}
		for i := 1; i <= events; i++ {
			if err := w.Append(walEvent(i)); err != nil {
				b.Fatal(err)
			}
		}
		if err := w.Sync(); err != nil {
			b.Fatal(err)
		}
		w.Close()
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := st.LoadSession("s-000001"); err != nil {
				b.Fatal(err)
			}
			if _, err := st.LoadWAL("s-000001"); err != nil {
				b.Fatal(err)
			}
		}
	})
}
