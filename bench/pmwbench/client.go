package main

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"net/http"
	"sync"
	"sync/atomic"
	"time"
)

// Dispositions of a released answer.
const (
	dispHit    = 'h' // re-released from the session's answer cache
	dispTop    = 't' // ⊤: an oracle call was spent and the hypothesis updated
	dispBottom = 'b' // ⊥: answered from the public hypothesis
)

// answer is one released answer as the analyst saw it.
type answer struct {
	disp byte
	vals []float64
}

// digest is a SHA-256 over a session's ordered (disposition, answer)
// pairs, each answer as its exact float64 bits.
func digest(as []answer) string {
	h := sha256.New()
	var buf [8]byte
	for _, a := range as {
		h.Write([]byte{a.disp})
		binary.LittleEndian.PutUint64(buf[:], uint64(len(a.vals)))
		h.Write(buf[:])
		for _, v := range a.vals {
			binary.LittleEndian.PutUint64(buf[:], math.Float64bits(v))
			h.Write(buf[:])
		}
	}
	return hex.EncodeToString(h.Sum(nil))
}

// Operation kinds and churn phases.
const (
	opQuery  = "query"
	opBatch  = "batch"
	opCreate = "create"
	opClose  = "close"

	phaseSteady = "steady"
	phaseResume = "resume" // first batch request after an idle gap
)

// op is one timed client operation. Latency counts only when ok.
type op struct {
	id    string // X-Request-ID, which joins client and server spans
	kind  string
	phase string
	start time.Time
	ms    float64
	ok    bool
	// disp classifies a successful query request: its disposition, or for
	// a batch ⊤ when any item spent, hit when every item was cached, else ⊥.
	disp    byte
	queries int // answers released
	tops    int
	hits    int
}

// loader is the load generator: one HTTP client whose connection pool
// allows two connections, shared by every session's closed loop.
type loader struct {
	base   string
	client *http.Client
	prefix string
	seq    atomic.Int64
}

func newLoader(base, prefix string) *loader {
	tr := &http.Transport{
		MaxConnsPerHost:     2,
		MaxIdleConnsPerHost: 2,
		DisableCompression:  true,
	}
	return &loader{base: base, client: &http.Client{Transport: tr, Timeout: 60 * time.Second}, prefix: prefix}
}

func (l *loader) closeIdle() { l.client.CloseIdleConnections() }

// do sends one request and decodes a 2xx JSON reply into out.
func (l *loader) do(ctx context.Context, o *op, method, path string, body any, want int, out any) error {
	var rd io.Reader
	if body != nil {
		b, err := json.Marshal(body)
		if err != nil {
			return err
		}
		rd = bytes.NewReader(b)
	}
	req, err := http.NewRequestWithContext(ctx, method, l.base+path, rd)
	if err != nil {
		return err
	}
	o.id = fmt.Sprintf("%s-%d", l.prefix, l.seq.Add(1))
	req.Header.Set("X-Request-ID", o.id)
	if body != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	o.start = time.Now()
	resp, err := l.client.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	o.ms = float64(time.Since(o.start).Nanoseconds()) / 1e6
	if err != nil {
		return err
	}
	if resp.StatusCode != want {
		return fmt.Errorf("%s %s: status %d: %s", method, path, resp.StatusCode, bytes.TrimSpace(data))
	}
	if out != nil {
		if err := json.Unmarshal(data, out); err != nil {
			return fmt.Errorf("%s %s: decoding reply: %w", method, path, err)
		}
	}
	return nil
}

// queryReply mirrors the fields of a query reply the benchmark checks.
type queryReply struct {
	Answer []float64 `json:"answer"`
	Top    bool      `json:"top"`
	Cached bool      `json:"cached"`
}

func (r *queryReply) answer() answer {
	a := answer{disp: dispBottom, vals: r.Answer}
	switch {
	case r.Cached:
		a.disp = dispHit
	case r.Top:
		a.disp = dispTop
	}
	return a
}

func (l *loader) create(ctx context.Context, p sessionParams) (string, op, error) {
	o := op{kind: opCreate}
	var st struct {
		ID string `json:"id"`
	}
	err := l.do(ctx, &o, http.MethodPost, "/v1/sessions", p, http.StatusCreated, &st)
	o.ok = err == nil
	return st.ID, o, err
}

func (l *loader) close(ctx context.Context, id string) (op, error) {
	o := op{kind: opClose}
	err := l.do(ctx, &o, http.MethodDelete, "/v1/sessions/"+id, nil, http.StatusOK, nil)
	o.ok = err == nil
	return o, err
}

func (l *loader) query(ctx context.Context, id string, sp spec) (answer, op, error) {
	o := op{kind: opQuery, phase: phaseSteady}
	var r queryReply
	if err := l.do(ctx, &o, http.MethodPost, "/v1/sessions/"+id+"/query", sp, http.StatusOK, &r); err != nil {
		return answer{}, o, err
	}
	a := r.answer()
	o.ok, o.disp, o.queries = true, a.disp, 1
	switch a.disp {
	case dispTop:
		o.tops = 1
	case dispHit:
		o.hits = 1
	}
	return a, o, nil
}

func (l *loader) batch(ctx context.Context, id string, sps []spec, phase string) ([]answer, op, error) {
	o := op{kind: opBatch, phase: phase}
	var br struct {
		Results []struct {
			Result *queryReply `json:"result"`
			Error  string      `json:"error"`
		} `json:"results"`
	}
	body := map[string]any{"queries": sps}
	if err := l.do(ctx, &o, http.MethodPost, "/v1/sessions/"+id+"/queries:batch", body, http.StatusOK, &br); err != nil {
		return nil, o, err
	}
	if len(br.Results) != len(sps) {
		return nil, o, fmt.Errorf("batch on %s: %d results for %d queries", id, len(br.Results), len(sps))
	}
	out := make([]answer, len(sps))
	for i, it := range br.Results {
		if it.Result == nil {
			return nil, o, fmt.Errorf("batch on %s: item %d: %s", id, i, it.Error)
		}
		out[i] = it.Result.answer()
		switch out[i].disp {
		case dispTop:
			o.tops++
		case dispHit:
			o.hits++
		}
	}
	o.ok, o.queries = true, len(out)
	switch {
	case o.tops > 0:
		o.disp = dispTop
	case o.hits == len(out):
		o.disp = dispHit
	default:
		o.disp = dispBottom
	}
	return out, o, nil
}

// sessionLog is what one session's client saw in a round.
type sessionLog struct {
	key     sessionKey
	answers []answer
}

// load is one round's client-side record.
type load struct {
	sessions []sessionLog
	ops      []op
	errs     []error
}

type recorder struct {
	mu sync.Mutex
	load
}

func (r *recorder) add(o op, err error) {
	r.mu.Lock()
	r.ops = append(r.ops, o)
	if err != nil && len(r.errs) < 8 {
		r.errs = append(r.errs, err)
	}
	r.mu.Unlock()
}

// runClosed sends every session's stream through its own closed loop.
func (l *loader) runClosed(ctx context.Context, w *workload, seed int64, ids []string) *load {
	rec := &recorder{}
	rec.sessions = make([]sessionLog, len(ids))
	var wg sync.WaitGroup
	for i, id := range ids {
		wg.Add(1)
		go func(i int, id string) {
			defer wg.Done()
			k := sessionKey{worker: i}
			sl := sessionLog{key: k}
			for _, sp := range w.stream(seed, k, w.queries) {
				a, o, err := l.query(ctx, id, sp)
				rec.add(o, err)
				if err == nil {
					sl.answers = append(sl.answers, a)
				}
			}
			rec.mu.Lock()
			rec.sessions[i] = sl
			rec.mu.Unlock()
		}(i, id)
	}
	wg.Wait()
	return &rec.load
}

// runChurn drives each worker's session lifetimes of round i: create on
// the pinned id, bursts of batch requests separated by idle gaps, close.
func (l *loader) runChurn(ctx context.Context, w *workload, seed int64, round int, ids [][]string) *load {
	c := w.fleet
	rec := &recorder{}
	rec.sessions = make([]sessionLog, 0, w.sessions*c.cycles)
	var wg sync.WaitGroup
	for k := 0; k < w.sessions; k++ {
		wg.Add(1)
		go func(k int) {
			defer wg.Done()
			for cyc := 0; cyc < c.cycles; cyc++ {
				key := sessionKey{worker: k, cycle: round*c.cycles + cyc}
				sl := sessionLog{key: key}
				p := w.params
				p.ID = ids[k][cyc]
				id, o, err := l.create(ctx, p)
				rec.add(o, err)
				if err != nil {
					continue
				}
				stream := w.stream(seed, key, c.queries())
				for b := 0; b < c.bursts; b++ {
					phase := phaseSteady
					if b > 0 {
						phase = phaseResume
						select {
						case <-ctx.Done():
						case <-time.After(c.idle):
						}
					}
					for r := 0; r < c.batches; r++ {
						n := (b*c.batches + r) * c.batchSize
						as, o, err := l.batch(ctx, id, stream[n:n+c.batchSize], phase)
						rec.add(o, err)
						sl.answers = append(sl.answers, as...)
						phase = phaseSteady
					}
				}
				o, err = l.close(ctx, id)
				rec.add(o, err)
				rec.mu.Lock()
				rec.sessions = append(rec.sessions, sl)
				rec.mu.Unlock()
			}
		}(k)
	}
	wg.Wait()
	return &rec.load
}
