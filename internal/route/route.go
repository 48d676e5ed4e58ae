// Package route is the fleet front door: a consistent-hashing session
// router over a set of `pmwcm serve` replicas.
//
// Sessions are sticky by construction, not by bookkeeping: a session id
// hashes onto a replica through a fixed virtual-node ring, so every node
// that knows the replica set — the router, a second router, an operator
// with `pmwcm route`'s /v1/route/{id} debug endpoint — independently
// agrees where a session lives. Creates pin the placement by minting the
// id *before* forwarding (or honoring a caller-pinned one); queries,
// status reads, snapshots, and closes follow the pin; transcripts are
// special-cased to stay readable even while the owning replica is down,
// by falling back to the session's last checkpoint in the shared blob
// store (the fleet runs replicas with -store-url, so a checkpoint is
// always one GET away).
//
// Health is passive: the router never probes. A transport failure marks
// the replica down for a cool-down window, during which requests pinned
// to it fail fast with a typed 503 carrying Retry-After; requests pinned
// to other replicas are unaffected — the failure domain of one replica is
// exactly its hash shard. New sessions route around down replicas by
// rejection-sampling the minted id.
package route

import (
	crand "crypto/rand"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"hash/fnv"
	"net/http"
	"net/url"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/mech"
	"repro/internal/obs"
	"repro/internal/persist"
	"repro/internal/service"
)

// VNodes is the number of ring positions per replica. 128 keeps the
// largest/smallest shard ratio small (≈1.3 at 3 replicas) while the ring
// stays a few KiB.
const VNodes = 128

// Replica names one serve backend.
type Replica struct {
	// Name is the replica's stable identity: its hash-ring key and — in a
	// -store-url fleet — its namespace in the shared blob store. Renaming
	// a replica remaps its shard.
	Name string
	// URL is the replica's base URL (scheme://host:port).
	URL string
}

// ParseReplicas parses the -replicas flag syntax:
// "r1=http://h1:8787,r2=http://h2:8787".
func ParseReplicas(spec string) ([]Replica, error) {
	var reps []Replica
	seen := map[string]bool{}
	for _, part := range strings.Split(spec, ",") {
		part = strings.TrimSpace(part)
		if part == "" {
			continue
		}
		name, rawu, ok := strings.Cut(part, "=")
		if !ok || name == "" || rawu == "" {
			return nil, fmt.Errorf("route: replica %q: want name=url", part)
		}
		if err := persist.ValidateID(name); err != nil {
			return nil, fmt.Errorf("route: replica name %q: %w", name, err)
		}
		if seen[name] {
			return nil, fmt.Errorf("route: duplicate replica name %q", name)
		}
		seen[name] = true
		u, err := url.Parse(rawu)
		if err != nil || u.Scheme == "" || u.Host == "" {
			return nil, fmt.Errorf("route: replica %s: invalid url %q", name, rawu)
		}
		reps = append(reps, Replica{Name: name, URL: rawu})
	}
	if len(reps) == 0 {
		return nil, fmt.Errorf("route: no replicas configured")
	}
	return reps, nil
}

// Options tune a Router.
type Options struct {
	// Client overrides the forwarding HTTP client (tests); nil builds one
	// with Timeout.
	Client *http.Client
	// Timeout bounds each forwarded request (0 = 15s). Queries can take
	// real mechanism work, so this is generous by default.
	Timeout time.Duration
	// RetryAfter is the Retry-After value on typed 503s (0 = 2s).
	RetryAfter time.Duration
	// CoolDown is how long a transport failure keeps a replica marked
	// down before the next pinned request probes it again (0 = 2s).
	CoolDown time.Duration
	// StoreURL is the shared blob store base (a `pmwcm store` endpoint,
	// e.g. http://host:9099). When set, transcripts of sessions on down
	// replicas are served from the session's last checkpoint.
	StoreURL string
	// Metrics registers pmwcm_route_* instruments when non-nil.
	Metrics *obs.Registry
	// IDSource overrides random id generation (tests); it must return n
	// random bytes. Nil uses crypto/rand.
	IDSource func(n int) ([]byte, error)
}

// replica is one backend plus its passive-health state.
type replica struct {
	name string
	base *url.URL
	// downUntil is the unix-nano deadline of the current cool-down; zero
	// or past means up. Written on transport failures, read lock-free on
	// every pinned request.
	downUntil atomic.Int64
}

func (rep *replica) up() bool {
	d := rep.downUntil.Load()
	return d == 0 || time.Now().UnixNano() >= d
}

// ringEntry is one virtual node: a hash position owned by a replica.
type ringEntry struct {
	h   uint64
	idx int
}

// routeMetrics are the router's instruments (all nil-safe no-ops when
// metrics are off).
type routeMetrics struct {
	reg     *obs.Registry
	latency *obs.Histogram
}

func (m *routeMetrics) request(replica, class string, seconds float64) {
	if m == nil || m.reg == nil {
		return
	}
	m.reg.Counter("pmwcm_route_requests_total",
		"Requests forwarded through the router, by replica and status class (error = transport failure).",
		obs.Labels{"replica": replica, "class": class}).Inc()
	m.latency.Observe(seconds)
}

// Router is the consistent-hashing front door. All methods are safe for
// concurrent use.
type Router struct {
	replicas   []*replica
	ring       []ringEntry
	client     *http.Client
	retryAfter time.Duration
	coolDown   time.Duration
	storeURL   string
	met        *routeMetrics
	randBytes  func(n int) ([]byte, error)
	started    time.Time

	// stores lazily caches one persist.Remote per replica namespace for
	// the transcript fallback (nil storeURL leaves it empty).
	storeMu sync.Mutex
	stores  map[string]*persist.Remote
}

// New builds a Router over the replica set.
func New(reps []Replica, opts Options) (*Router, error) {
	if len(reps) == 0 {
		return nil, fmt.Errorf("route: no replicas configured")
	}
	if opts.Timeout <= 0 {
		opts.Timeout = 15 * time.Second
	}
	if opts.RetryAfter <= 0 {
		opts.RetryAfter = 2 * time.Second
	}
	if opts.CoolDown <= 0 {
		opts.CoolDown = 2 * time.Second
	}
	client := opts.Client
	if client == nil {
		client = &http.Client{Timeout: opts.Timeout}
	}
	rt := &Router{
		client:     client,
		retryAfter: opts.RetryAfter,
		coolDown:   opts.CoolDown,
		storeURL:   strings.TrimRight(opts.StoreURL, "/"),
		randBytes:  opts.IDSource,
		started:    time.Now(),
		stores:     map[string]*persist.Remote{},
	}
	if rt.randBytes == nil {
		rt.randBytes = cryptoRandBytes
	}
	for i, r := range reps {
		u, err := url.Parse(r.URL)
		if err != nil || u.Scheme == "" || u.Host == "" {
			return nil, fmt.Errorf("route: replica %s: invalid url %q", r.Name, r.URL)
		}
		rt.replicas = append(rt.replicas, &replica{name: r.Name, base: u})
		for v := 0; v < VNodes; v++ {
			rt.ring = append(rt.ring, ringEntry{h: hash64(r.Name + "#" + strconv.Itoa(v)), idx: i})
		}
	}
	sort.Slice(rt.ring, func(i, j int) bool { return rt.ring[i].h < rt.ring[j].h })
	if opts.Metrics != nil {
		rt.met = &routeMetrics{
			reg: opts.Metrics,
			latency: opts.Metrics.Histogram("pmwcm_route_proxy_seconds",
				"Router-observed latency of forwarded requests.", obs.DefBuckets, nil),
		}
		opts.Metrics.RegisterCollector(rt.collect)
	}
	return rt, nil
}

// collect emits the per-replica up/down gauge at scrape time.
func (rt *Router) collect(emit func(obs.Sample)) {
	for _, rep := range rt.replicas {
		v := 0.0
		if rep.up() {
			v = 1
		}
		emit(obs.Sample{Name: "pmwcm_route_replica_up",
			Help:   "1 when the replica accepted its last forwarded request (passive health), 0 during a failure cool-down.",
			Labels: obs.Labels{"replica": rep.name}, Value: v})
	}
}

// hash64 is the ring hash: FNV-1a finished with an avalanche mixer.
// FNV-1a alone leaves sequential inputs ("user-1", "user-2", …) on a
// lattice that can starve whole replicas of their shard; the splitmix64
// finalizer spreads structured caller-pinned ids evenly over the ring.
// Collision resistance is irrelevant here — placement is public.
func hash64(s string) uint64 {
	h := fnv.New64a()
	h.Write([]byte(s))
	x := h.Sum64()
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	x ^= x >> 31
	return x
}

// owner maps a session id to its replica via the ring.
func (rt *Router) owner(id string) *replica {
	h := hash64(id)
	i := sort.Search(len(rt.ring), func(i int) bool { return rt.ring[i].h >= h })
	if i == len(rt.ring) {
		i = 0
	}
	return rt.replicas[rt.ring[i].idx]
}

// cryptoRandBytes is the production id entropy source.
func cryptoRandBytes(n int) ([]byte, error) {
	b := make([]byte, n)
	if _, err := crand.Read(b); err != nil {
		return nil, err
	}
	return b, nil
}

// newSessionID mints a router-owned session id ("rt-" + 12 hex chars)
// whose owner is currently up, by rejection sampling: placement must stay
// pure ring-hashing (anyone can recompute it), so the router searches ids
// rather than overriding owners. With any replica up, a draw lands on an
// up shard with probability ≥ 1/len(replicas); 128 tries make a full miss
// astronomically unlikely. When every replica is down the last candidate
// is returned anyway — the forward will produce the typed 503.
func (rt *Router) newSessionID() (string, *replica, error) {
	var id string
	var rep *replica
	for try := 0; try < 128; try++ {
		b, err := rt.randBytes(6)
		if err != nil {
			return "", nil, fmt.Errorf("route: minting session id: %w", err)
		}
		id = "rt-" + hex.EncodeToString(b)
		rep = rt.owner(id)
		if rep.up() {
			return id, rep, nil
		}
	}
	return id, rep, nil
}

// markDown starts rep's failure cool-down.
func (rt *Router) markDown(rep *replica) {
	rep.downUntil.Store(time.Now().Add(rt.coolDown).UnixNano())
}

// storeFor lazily opens the blob-store namespace holding rep's
// checkpoints ("" StoreURL disables the fallback entirely).
func (rt *Router) storeFor(rep *replica) (*persist.Remote, error) {
	if rt.storeURL == "" {
		return nil, fmt.Errorf("route: no -store-url configured, transcript fallback unavailable")
	}
	rt.storeMu.Lock()
	defer rt.storeMu.Unlock()
	if r := rt.stores[rep.name]; r != nil {
		return r, nil
	}
	r, err := persist.OpenRemote(rt.storeURL+"/v1/stores/"+rep.name, persist.RemoteOptions{Client: rt.client})
	if err != nil {
		return nil, err
	}
	rt.stores[rep.name] = r
	return r, nil
}

// storedTranscript rebuilds a session's transcript record from the shared
// store — the read path that keeps audits available while the owning
// replica is down. The store holds the session's last snapshot plus its
// write-ahead log, and every ⊤ is in the log before its answer was
// released, so the snapshot's events are extended by the log's contiguous
// event records past them (each carries its full transcript event; no
// re-execution needed). The budget bounds are recomputed by replaying the
// recorded ⊤ spends through a fresh accountant, exactly as the service's
// recovery verification does, so the record matches what the replica
// itself last served.
func (rt *Router) storedTranscript(rep *replica, id string) (*service.TranscriptRecord, error) {
	store, err := rt.storeFor(rep)
	if err != nil {
		return nil, err
	}
	st, err := store.LoadSession(id)
	if err != nil {
		return nil, err
	}
	recs, err := store.LoadWAL(id)
	if err != nil {
		return nil, err
	}
	for _, r := range recs {
		if r.Kind == persist.WALEvent && r.Event != nil && r.Seq == len(st.Transcript.Events)+1 && r.Event.Index == r.Seq {
			st.Transcript.Events = append(st.Transcript.Events, *r.Event)
		}
	}
	var p service.SessionParams
	if err := json.Unmarshal(st.Params, &p); err != nil {
		return nil, fmt.Errorf("route: session %s params: %w", id, err)
	}
	eps, delta := st.Transcript.SpentOracle()
	rec := &service.TranscriptRecord{
		ID:         st.ID,
		Transcript: st.Transcript,
		Tops:       st.Transcript.Tops(),
		CumEps:     eps,
		CumDelta:   delta,
	}
	acct, err := mech.NewAccountant(p.Accountant, mech.Params{Eps: p.Eps, Delta: p.Delta}, p.AccountantParams)
	if err != nil {
		return nil, fmt.Errorf("route: session %s accountant: %w", id, err)
	}
	if err := acct.Reserve(mech.Params{Eps: p.Eps / 2, Delta: p.Delta / 2}); err != nil {
		return nil, fmt.Errorf("route: session %s reservation: %w", id, err)
	}
	for _, ev := range st.Transcript.Events {
		if !ev.Top {
			continue
		}
		if err := acct.Spend(mech.Cost{Eps: ev.EpsSpent, Delta: ev.DeltaSpent, Rho: ev.RhoSpent}); err != nil {
			return nil, fmt.Errorf("route: session %s: replaying spend %d: %w", id, ev.Index, err)
		}
	}
	tot := acct.Total()
	rec.EpsBound, rec.DeltaBound = tot.Eps, tot.Delta
	return rec, nil
}

// Replicas reports each replica's name, URL, and passive-health state —
// the /healthz payload.
func (rt *Router) Replicas() []map[string]any {
	out := make([]map[string]any, 0, len(rt.replicas))
	for _, rep := range rt.replicas {
		out = append(out, map[string]any{
			"name": rep.name,
			"url":  rep.base.String(),
			"up":   rep.up(),
		})
	}
	return out
}
