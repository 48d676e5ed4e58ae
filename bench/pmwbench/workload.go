package main

import (
	"encoding/json"
	"fmt"
	"math"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"time"

	"repro/internal/route"
)

// Deployment constants every workload shares. The mechanism seed is the
// serve default and never varies: only the workload seed (the query
// streams) changes between runs, so released answers are reproducible.
const (
	mechanismSeed = 1
	maxResident   = 2
	idleTTL       = 200 * time.Millisecond
	hotKeys       = 8
)

// sessionParams is the create body the analysts send.
type sessionParams struct {
	ID      string  `json:"id,omitempty"`
	K       int     `json:"k"`
	TBudget int     `json:"tbudget"`
	Eps     float64 `json:"eps"`
	Alpha   float64 `json:"alpha"`
}

// longSession leaves every fixed-size round far from K and T, so no query
// of a single-server workload is ever refused for budget.
var longSession = sessionParams{K: 100000, TBudget: 4096, Eps: 4, Alpha: 0.1}

// churn shapes a fleet workload: each worker cycles whole session
// lifetimes — create, bursts of batch requests separated by idle gaps
// longer than the replicas' idle TTL (so every burst after the first
// pages the session back in), close.
type churn struct {
	cycles    int // session lifetimes per worker per round
	bursts    int
	batches   int // batch requests per burst
	batchSize int // queries per batch request
	idle      time.Duration
}

func (c *churn) queries() int { return c.bursts * c.batches * c.batchSize }

// think is the time each churn worker spends idle on purpose in a round.
func (c *churn) think() time.Duration { return time.Duration(c.cycles*(c.bursts-1)) * c.idle }

// workload is one traffic mix. A round boots a fresh deployment and does a
// fixed amount of work drawn from per-session deterministic query streams;
// a run repeats rounds until the measured time is used up. All clients are
// closed loops, one per session, because a PMW analyst waits for each
// answer before choosing the next query.
type workload struct {
	name string
	why  string
	// dim, levels, labels shape the labeled-grid universe of every server,
	// and rows is the size of the synthetic private dataset.
	dim, levels, labels, rows int
	// sessions is the number of closed-loop clients, one per session; in a
	// fleet workload it is the number of churn workers, each with a replica
	// of its own.
	sessions int
	// queries is each closed-loop session's stream length per round.
	queries int
	// hot is the share of queries that repeat one of hotKeys specs; the
	// rest are first-time specs. Zero makes every query distinct.
	hot    float64
	params sessionParams
	// fleet, when set, deploys a blob store, replicas and a router, and
	// drives churn workers instead of long-lived sessions.
	fleet *churn
	// recovery SIGKILLs the server after the last round, restarts it on
	// the same state directory and sends one more query per session.
	recovery bool
}

var workloads = []*workload{
	{
		name: "miss_small",
		why:  "distinct queries on the 27-point universe: per-query fixed costs (HTTP, canonicalization, session lock, WAL group commit per top answer) dominate",
		dim:  2, levels: 3, labels: 3, rows: 200000,
		sessions: 2, queries: 1000,
		params: longSession, recovery: true,
	},
	{
		name: "miss_large",
		why:  "distinct queries on the 3888-point universe: the xeval, vecmath and convex kernels and the oracle take nearly all the time",
		dim:  4, levels: 6, labels: 3, rows: 200000,
		sessions: 1, queries: 25,
		params: longSession,
	},
	{
		name: "hot_mixed",
		why:  "80% repeats of 8 hot specs beside unique cold specs: lock-free cache hits run while misses hold the session and commit",
		dim:  2, levels: 3, labels: 3, rows: 200000,
		sessions: 2, queries: 3000, hot: 0.8,
		params: longSession,
	},
	{
		name: "fleet_churn",
		why:  "store, 2 replicas and a router: the only workload with the router hop, the remote store, eviction and page-in, and batch queries",
		dim:  2, levels: 3, labels: 3, rows: 200000,
		sessions: 2, hot: 0.8,
		params: sessionParams{K: 1000, TBudget: 32, Eps: 2, Alpha: 0.1},
		fleet:  &churn{cycles: 8, bursts: 3, batches: 4, batchSize: 4, idle: 400 * time.Millisecond},
	},
}

func workloadByName(name string) (*workload, error) {
	for _, w := range workloads {
		if w.name == name {
			return w, nil
		}
	}
	names := make([]string, len(workloads))
	for i, w := range workloads {
		names[i] = w.name
	}
	return nil, fmt.Errorf("unknown workload %q (have %v)", name, names)
}

// serveArgs are the flags that give a serve process this workload's
// universe and dataset.
func (w *workload) serveArgs() []string {
	return []string{
		"-rows", fmt.Sprint(w.rows),
		"-dim", fmt.Sprint(w.dim), "-levels", fmt.Sprint(w.levels), "-labels", fmt.Sprint(w.labels),
	}
}

// sessionKey names one session: the closed-loop session index, or a churn
// worker's session lifetime, numbered across the run's rounds.
type sessionKey struct{ worker, cycle int }

func (k sessionKey) String() string { return fmt.Sprintf("w%d-c%d", k.worker, k.cycle) }

// keys lists round i's sessions in the order the digests are reported.
// Closed-loop rounds repeat the same sessions, because replaying them for
// the check costs as much as serving them. Every fleet round runs new
// session lifetimes: a lifetime is cheap to replay, and a fleet run would
// otherwise see only a few dozen distinct batches, too few for a steady
// median.
func (w *workload) keys(round int) []sessionKey {
	var out []sessionKey
	for s := 0; s < w.sessions; s++ {
		if w.fleet == nil {
			out = append(out, sessionKey{s, 0})
			continue
		}
		for c := 0; c < w.fleet.cycles; c++ {
			out = append(out, sessionKey{s, round*w.fleet.cycles + c})
		}
	}
	return out
}

// runKeys lists the sessions of rounds 0 to n-1, each once.
func (w *workload) runKeys(n int) []sessionKey {
	if w.fleet == nil {
		return w.keys(0)
	}
	var out []sessionKey
	for i := 0; i < n; i++ {
		out = append(out, w.keys(i)...)
	}
	return out
}

// streamLen is the number of queries one session answers in a round.
func (w *workload) streamLen() int {
	if w.fleet != nil {
		return w.fleet.queries()
	}
	return w.queries
}

// creationIndex is the position of a session among the creates its server
// sees, which fixes the noise stream the server splits off for it. A
// closed-loop server creates its sessions in order; in a fleet each worker
// owns one replica and creates its round's lifetimes in order.
func (w *workload) creationIndex(k sessionKey) int {
	if w.fleet != nil {
		return k.cycle % w.fleet.cycles
	}
	return k.worker
}

// stream returns the first n queries of one session. It is a pure function
// of (workload, seed, session), so every run with a seed sends the same
// queries and the released answers can be checked against a replay.
func (w *workload) stream(seed int64, k sessionKey, n int) []spec {
	key := mix64(uint64(seed), uint64(k.worker)<<32|uint64(k.cycle))
	rng := rand.New(rand.NewSource(int64(key >> 1)))
	next := key % 1000000 // per-session offset of the first-time spec counter
	out := make([]spec, n)
	for i := range out {
		if w.hot > 0 && rng.Float64() < w.hot {
			out[i] = hotSpec(rng.Intn(hotKeys))
			continue
		}
		next++
		if w.hot > 0 {
			out[i] = coldSpec(next)
		} else {
			out[i] = distinctSpec(next)
		}
	}
	return out
}

// mix64 is the splitmix64 finalizer over a combined pair, used to derive
// independent per-session seeds from the workload seed.
func mix64(a, b uint64) uint64 {
	x := a*0x9e3779b97f4a7c15 + b + 0x632be59bd9b4e019
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	x ^= x >> 31
	return x
}

// spec is one query as the HTTP API takes it.
type spec struct {
	Kind   string          `json:"kind"`
	Params json.RawMessage `json:"params,omitempty"`
}

// hotSpec maps hot-key index h to a query spec. The kinds need no feature
// dimension, so the same specs run on every universe.
func hotSpec(h int) spec {
	switch h % 4 {
	case 0:
		return spec{Kind: "logistic", Params: json.RawMessage(fmt.Sprintf(`{"temp":%g}`, 0.3+0.05*float64(h)))}
	case 1:
		return spec{Kind: "hinge", Params: json.RawMessage(fmt.Sprintf(`{"width":%g}`, 1+0.1*float64(h)))}
	case 2:
		return spec{Kind: "huber", Params: json.RawMessage(fmt.Sprintf(`{"delta":%g}`, 0.3+0.02*float64(h)))}
	default:
		return spec{Kind: "logistic", Params: json.RawMessage(fmt.Sprintf(`{"margin":%g}`, 0.01*float64(h)))}
	}
}

// distinctSpec maps counter n to a genuinely different loss: the kind
// rotates and the leading parameter moves in large steps, so the mechanism
// keeps updating, and the 1e-9·n term keeps every canonical key unique.
func distinctSpec(n uint64) spec {
	v := math.Mod(0.05*float64(n), 1.4) + float64(n)*1e-9
	switch n % 3 {
	case 0:
		return spec{Kind: "logistic", Params: json.RawMessage(fmt.Sprintf(`{"temp":%.17g}`, 0.2+v))}
	case 1:
		return spec{Kind: "hinge", Params: json.RawMessage(fmt.Sprintf(`{"width":%.17g}`, 0.5+v))}
	default:
		return spec{Kind: "huber", Params: json.RawMessage(fmt.Sprintf(`{"delta":%.17g}`, 0.2+v))}
	}
}

// coldSpec is a first-time query close to every other cold query: most of
// them are answered ⊥ once the hypothesis has learned the region.
func coldSpec(n uint64) spec {
	return spec{Kind: "logistic", Params: json.RawMessage(fmt.Sprintf(`{"temp":%.17g}`, 0.5+float64(n)*1e-12))}
}

// fleetIDs pins every churn session of round i to its worker's replica:
// worker k's sessions all hash to replica k, so each replica sees one
// worker's creates in order and hands out its noise streams
// deterministically. Placement is a pure function of replica names and
// ids; the router's own placement endpoint computes it, in process.
func (w *workload) fleetIDs(round int) ([][]string, error) {
	reps := make([]route.Replica, w.sessions)
	for i := range reps {
		reps[i] = route.Replica{Name: replicaName(i), URL: "http://127.0.0.1:1"}
	}
	rt, err := route.New(reps, route.Options{})
	if err != nil {
		return nil, err
	}
	h := rt.Handler()
	owner := func(id string) (string, error) {
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/v1/route/"+id, nil))
		var doc struct {
			Replica string `json:"replica"`
		}
		if err := json.Unmarshal(rec.Body.Bytes(), &doc); err != nil || rec.Code != http.StatusOK {
			return "", fmt.Errorf("route placement for %s: status %d", id, rec.Code)
		}
		return doc.Replica, nil
	}
	ids := make([][]string, w.sessions)
	for _, k := range w.keys(round) {
		for j := 0; ; j++ {
			id := fmt.Sprintf("%s-w%d-c%d-%d", w.name, k.worker, k.cycle, j)
			rep, err := owner(id)
			if err != nil {
				return nil, err
			}
			if rep == replicaName(k.worker) {
				ids[k.worker] = append(ids[k.worker], id)
				break
			}
		}
	}
	return ids, nil
}

func replicaName(i int) string { return fmt.Sprintf("r%d", i+1) }
