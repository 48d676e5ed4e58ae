// Package transcript records the analyst/mechanism interaction of the
// accuracy game (paper Figure 1) as a serializable audit artifact: which
// queries were asked, what was answered, which queries crossed the sparse
// vector threshold (and therefore spent oracle budget), and the cumulative
// privacy spend. Transcripts serialize to JSON for offline inspection and
// regression comparison.
//
// Recording is pure observation: a Recorder wraps a core.Server behind the
// same Answer interface the games use, so experiments can be transcribed
// without touching the mechanism.
package transcript

import (
	"repro/internal/convex"
	"repro/internal/core"
)

// Event is one query/answer exchange.
type Event struct {
	// Index is the 1-based position in the interaction.
	Index int `json:"index"`
	// Query is the loss function's name.
	Query string `json:"query"`
	// Answer is the released parameter vector.
	Answer []float64 `json:"answer"`
	// Top reports whether the query triggered an oracle call and MW
	// update (spending budget) rather than being answered from the public
	// hypothesis.
	Top bool `json:"top"`
	// EpsSpent and DeltaSpent are this event's incremental budget cost
	// (zero for ⊥ answers — the sparse-vector budget is accounted up
	// front, not per query).
	EpsSpent   float64 `json:"eps_spent"`
	DeltaSpent float64 `json:"delta_spent"`
	// RhoSpent is the event's zCDP cost when the oracle certifies one
	// (Gaussian-noise oracles); zero otherwise.
	RhoSpent float64 `json:"rho_spent,omitempty"`
	// CumEps and CumDelta are the mechanism's composed privacy bound after
	// this event under the session's accountant — the audit trail of
	// cumulative spend, not a per-event increment.
	CumEps   float64 `json:"cum_eps"`
	CumDelta float64 `json:"cum_delta"`
	// CacheKey is the query's canonical spec key (convex.CanonicalKey)
	// when the exchange was driven from a serialized Spec. It lets an
	// answer cache be rebuilt from the transcript alone: re-releasing a
	// recorded answer for the same canonical query is pure post-processing
	// and spends nothing. Empty for exchanges recorded from bare Loss
	// values (the experiment games).
	CacheKey string `json:"cache_key,omitempty"`
}

// Transcript is a complete recorded interaction.
type Transcript struct {
	// Accountant records the accounting mode the run composed spends
	// under ("basic", "advanced", "zcdp").
	Accountant string `json:"accountant,omitempty"`
	// Meta carries run-level parameters (ε, δ, α, K, …).
	Meta map[string]float64 `json:"meta"`
	// Events are the exchanges in order.
	Events []Event `json:"events"`
	// HaltedEarly reports whether the mechanism stopped before the
	// analyst did.
	HaltedEarly bool `json:"halted_early"`
}

// New returns an empty transcript with the given metadata.
func New(meta map[string]float64) *Transcript {
	if meta == nil {
		meta = map[string]float64{}
	}
	return &Transcript{Meta: meta}
}

// Append records one event, assigning its index.
func (t *Transcript) Append(e Event) {
	e.Index = len(t.Events) + 1
	t.Events = append(t.Events, e)
}

// Tops returns the number of budget-spending exchanges.
func (t *Transcript) Tops() int {
	var n int
	for _, e := range t.Events {
		if e.Top {
			n++
		}
	}
	return n
}

// SpentOracle returns the cumulative oracle budget recorded (basic
// composition over the per-event spends; the mechanism's own accounting
// uses strong composition and is tighter).
func (t *Transcript) SpentOracle() (eps, delta float64) {
	for _, e := range t.Events {
		eps += e.EpsSpent
		delta += e.DeltaSpent
	}
	return eps, delta
}

// Recorder wraps a core.Server, transcribing every exchange. It satisfies
// the same Answer contract the accuracy games consume.
type Recorder struct {
	Srv *core.Server
	T   *Transcript
}

// NewRecorder builds a recorder around srv with metadata taken from the
// server's derived parameters.
func NewRecorder(srv *core.Server) *Recorder {
	p := srv.Params()
	t := New(map[string]float64{
		"T":           float64(p.T),
		"eta":         p.Eta,
		"eps0":        p.Eps0,
		"delta0":      p.Delta0,
		"alpha0":      p.Alpha0,
		"sensitivity": p.Sensitivity,
	})
	t.Accountant = srv.AccountantName()
	return &Recorder{Srv: srv, T: t}
}

// Answer forwards to the server and records the exchange. A halt is
// recorded on the transcript and returned unchanged.
func (r *Recorder) Answer(l convex.Loss) ([]float64, error) {
	return r.AnswerKeyed(l, "")
}

// AnswerKeyed records like Answer and stamps the event with the query's
// canonical cache key (convex.CanonicalKey of the spec that named l), so
// answer caches can be rebuilt from the transcript after a restore. An
// empty key records a plain event.
func (r *Recorder) AnswerKeyed(l convex.Loss, cacheKey string) ([]float64, error) {
	before := r.Srv.Updates()
	theta, err := r.Srv.Answer(l)
	if err != nil {
		if err == core.ErrHalted {
			r.T.HaltedEarly = true
		}
		return nil, err
	}
	top := r.Srv.Updates() > before
	ev := Event{Query: l.Name(), Answer: append([]float64(nil), theta...), Top: top, CacheKey: cacheKey}
	if top {
		cost := r.Srv.CallCost()
		ev.EpsSpent = cost.Eps
		ev.DeltaSpent = cost.Delta
		ev.RhoSpent = cost.Rho
	}
	priv := r.Srv.Privacy()
	ev.CumEps, ev.CumDelta = priv.Eps, priv.Delta
	r.T.Append(ev)
	return theta, nil
}
