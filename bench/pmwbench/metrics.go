package main

// metric is one reported number.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// metricDef names a metric BENCHMARK.json declares.
type metricDef struct{ name, unit string }

// endToEnd are the metrics an analyst or operator sees, from the untraced
// process run. Every workload reports each of them.
var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"throughput_qps", "queries/s"},
	{"query_p50_ms", "ms"},
	{"query_p90_ms", "ms"},
	{"top_p50_ms", "ms"},
	{"cpu_ms_per_query", "ms"},
	{"peak_rss_mb", "MB"},
}

// perLayer are the traced run's metrics that every workload reports.
var perLayer = []metricDef{
	{"client.rtt_ms_p50", "ms"},
	{"http.overhead_ms_p50", "ms"},
	{"service.handler_ms_p50", "ms"},
	{"service.top_ms_p50", "ms"},
	{"service.create_ms_p50", "ms"},
	{"core.answer_ms_p50", "ms"},
	{"core.top_ratio", "ratio"},
	{"core.self_ms_per_query", "ms"},
	{"erm.oracle_ms_p50", "ms"},
	{"erm.oracle_share", "ratio"},
	{"xeval.sweeps_per_query", "count"},
	{"xeval.sweep_us_p50", "us"},
	{"xeval.sweep_share", "ratio"},
	{"persist.fsync_ms_p50", "ms"},
	{"persist.tops_per_fsync", "ratio"},
	{"persist.write_bytes_per_top", "bytes"},
	{"persist.save_ms_p50", "ms"},
	{"trace.overhead_ratio", "ratio"},
}

// report collects metrics: the declared ones that go into the result line,
// and details printed beside them. Only details with samples are kept.
type report struct {
	metrics map[string]metric
	details map[string]metric
}

func newReport() *report {
	return &report{metrics: map[string]metric{}, details: map[string]metric{}}
}

func (r *report) set(name string, v float64, unit string) { r.metrics[name] = metric{v, unit} }

func (r *report) detail(name string, v float64, unit string) { r.details[name] = metric{v, unit} }

// latency adds a detail's median and the tail percentiles its sample
// supports, with its sample count.
func (r *report) latency(name string, xs []float64) {
	if len(xs) == 0 {
		return
	}
	r.detail(name+"_p50_ms", percentile(xs, 0.5), "ms")
	for _, p := range []struct {
		q    float64
		name string
	}{{0.9, "_p90_ms"}, {0.99, "_p99_ms"}} {
		if tailOK(len(xs), p.q) {
			r.detail(name+p.name, percentile(xs, p.q), "ms")
		}
	}
	r.detail(name+"_samples", float64(len(xs)), "count")
}

func isQuery(o op) bool  { return o.kind == opQuery || o.kind == opBatch }
func isCreate(o op) bool { return o.kind == opCreate }
func isResume(o op) bool { return o.phase == phaseResume }

// latencies selects the successful operations that match keep.
func latencies(ops []op, keep func(op) bool) []float64 {
	var out []float64
	for _, o := range ops {
		if o.ok && keep(o) {
			out = append(out, o.ms)
		}
	}
	return out
}

func allOps(rounds []*round) []op {
	var out []op
	for _, rd := range rounds {
		out = append(out, rd.ops...)
	}
	return out
}

// withDisp selects the query requests of one disposition.
func withDisp(d byte) func(op) bool { return func(o op) bool { return isQuery(o) && o.disp == d } }

// endToEndReport computes the declared end-to-end metrics of a process
// run and its workload-specific details. Every time is reported at the
// reference host's speed: divided by the host's slowdown around its round
// (see calib.go). The declared metrics are also printed as measured, with
// the prefix raw_.
func endToEndReport(w *workload, out *outcome) *report {
	r := newReport()
	var ops, rawOps []op
	var setups, rawSetups, rss, slowdowns []float64
	for _, st := range out.setups {
		setups = append(setups, st.seconds/st.slowdown)
		rawSetups = append(rawSetups, st.seconds)
	}
	var busy, rawBusy, cpuMS, rawCPUMS float64
	var think float64
	if w.fleet != nil {
		think = w.fleet.think().Seconds()
	}
	for _, rd := range out.rounds {
		s := rd.slowdown
		slowdowns = append(slowdowns, s)
		setups = append(setups, rd.setup/s)
		rawSetups = append(rawSetups, rd.setup)
		rss = append(rss, float64(rd.rssKB)/1024)
		// The analysts' deliberate idle time is no part of the service time.
		busy += (rd.seconds - think) / s
		rawBusy += rd.seconds - think
		ms := float64(rd.cpuTicks) * 1000 / clockTick
		cpuMS += ms / s
		rawCPUMS += ms
		for _, o := range rd.ops {
			rawOps = append(rawOps, o)
			o.ms /= s
			ops = append(ops, o)
		}
	}
	var queries, tops, hits int
	for _, o := range ops {
		if o.ok && isQuery(o) {
			queries += o.queries
			tops += o.tops
			hits += o.hits
		}
	}
	lat, rawLat := latencies(ops, isQuery), latencies(rawOps, isQuery)
	top, rawTop := latencies(ops, withDisp(dispTop)), latencies(rawOps, withDisp(dispTop))
	r.set("setup_s", median(setups), "s")
	r.set("throughput_qps", float64(queries)/busy, "queries/s")
	r.set("query_p50_ms", percentile(lat, 0.5), "ms")
	r.set("query_p90_ms", percentile(lat, 0.9), "ms")
	r.set("top_p50_ms", percentile(top, 0.5), "ms")
	r.set("cpu_ms_per_query", cpuMS/float64(queries), "ms")
	r.set("peak_rss_mb", median(rss), "MB")
	r.detail("raw_setup_s", median(rawSetups), "s")
	r.detail("raw_throughput_qps", float64(queries)/rawBusy, "queries/s")
	r.detail("raw_query_p50_ms", percentile(rawLat, 0.5), "ms")
	r.detail("raw_query_p90_ms", percentile(rawLat, 0.9), "ms")
	r.detail("raw_top_p50_ms", percentile(rawTop, 0.5), "ms")
	r.detail("raw_cpu_ms_per_query", rawCPUMS/float64(queries), "ms")
	r.detail("host_slowdown", median(slowdowns), "ratio")

	r.detail("rounds", float64(len(out.rounds)), "count")
	r.detail("queries", float64(queries), "count")
	r.detail("tops", float64(tops), "count")
	r.detail("cache_hits", float64(hits), "count")
	r.detail("failed_ratio", float64(out.failed)/float64(out.attempted), "ratio")
	r.latency("query", lat)
	r.latency("top", top)
	r.latency("bottom", latencies(ops, withDisp(dispBottom)))
	r.latency("hit", latencies(ops, withDisp(dispHit)))
	r.latency("resume", latencies(ops, isResume))
	r.latency("create", latencies(ops, isCreate))
	if out.recovery != nil {
		r.detail("recovery_s", out.recovery.seconds/out.rounds[len(out.rounds)-1].slowdown, "s")
	}
	return r
}

// spanIndex looks spans up by name, and by name and request id.
type spanIndex struct {
	byName map[string][]span
	byID   map[string]map[string]span
}

func indexSpans(spans []span) *spanIndex {
	ix := &spanIndex{byName: map[string][]span{}, byID: map[string]map[string]span{}}
	for _, s := range spans {
		ix.byName[s.Name] = append(ix.byName[s.Name], s)
		if s.ID == "" {
			continue
		}
		if ix.byID[s.Name] == nil {
			ix.byID[s.Name] = map[string]span{}
		}
		ix.byID[s.Name][s.ID] = s
	}
	return ix
}

func (ix *spanIndex) durations(name string) []float64 {
	var out []float64
	for _, s := range ix.byName[name] {
		out = append(out, s.ms())
	}
	return out
}

func (ix *spanIndex) total(name string) float64 { return sum(ix.durations(name)) }

// handlerMS is the duration of the handler span an operation caused.
func (ix *spanIndex) handlerMS(name string, ops []op, keep func(op) bool) []float64 {
	var out []float64
	for _, o := range ops {
		if !o.ok || !keep(o) {
			continue
		}
		if s, ok := ix.byID[name][o.id]; ok {
			out = append(out, s.ms())
		}
	}
	return out
}

// layerReport computes the per-layer metrics of a traced run from its
// client operations, its spans, and the replay.
func layerReport(w *workload, out *outcome, tr *tracer) *report {
	r := newReport()
	ops := allOps(out.rounds)
	tr.mu.Lock()
	ix := indexSpans(tr.spans)
	tr.mu.Unlock()
	outer := spanService
	if w.fleet != nil {
		outer = spanRoute
	}
	var rtt, overhead []float64
	var tops, hits, queries int
	for _, o := range ops {
		if !o.ok || !isQuery(o) {
			continue
		}
		rtt = append(rtt, o.ms)
		if s, ok := ix.byID[outer][o.id]; ok {
			overhead = append(overhead, o.ms-s.ms())
		}
		tops += o.tops
		hits += o.hits
		queries += o.queries
	}
	r.set("client.rtt_ms_p50", percentile(rtt, 0.5), "ms")
	r.set("http.overhead_ms_p50", percentile(overhead, 0.5), "ms")
	handler := percentile(ix.handlerMS(spanService, ops, isQuery), 0.5)
	r.set("service.handler_ms_p50", handler, "ms")
	r.set("service.top_ms_p50", percentile(ix.handlerMS(spanService, ops, withDisp(dispTop)), 0.5), "ms")
	r.set("service.create_ms_p50", percentile(ix.handlerMS(spanService, ops, isCreate), 0.5), "ms")
	r.set("trace.overhead_ratio", percentile(rtt, 0.5)/percentile(latencies(allOps(out.untraced), isQuery), 0.5), "ratio")

	answers := ix.byName[spanAnswer]
	var replayTops int
	for _, as := range out.replayed {
		for _, a := range as {
			if a.disp == dispTop {
				replayTops++
			}
		}
	}
	tr.sweeps.mu.Lock()
	sweepUS := make([]float64, len(tr.sweeps.us))
	for i, us := range tr.sweeps.us {
		sweepUS[i] = float64(us)
	}
	outsideMS := tr.sweeps.outsideMS
	tr.sweeps.mu.Unlock()
	answerMS := ix.total(spanAnswer)
	oracleMS := ix.total(spanOracle)
	n := float64(len(answers))
	answer := percentile(ix.durations(spanAnswer), 0.5)
	r.set("core.answer_ms_p50", answer, "ms")
	r.set("core.top_ratio", float64(replayTops)/n, "ratio")
	r.set("core.self_ms_per_query", (answerMS-oracleMS-outsideMS)/n, "ms")
	r.set("erm.oracle_ms_p50", percentile(ix.durations(spanOracle), 0.5), "ms")
	r.set("erm.oracle_share", oracleMS/answerMS, "ratio")
	r.set("xeval.sweeps_per_query", float64(len(sweepUS))/n, "count")
	r.set("xeval.sweep_us_p50", percentile(sweepUS, 0.5), "us")
	r.set("xeval.sweep_share", sum(sweepUS)/1000/answerMS, "ratio")

	fsyncs := ix.durations(spanFsync)
	r.set("persist.fsync_ms_p50", percentile(fsyncs, 0.5), "ms")
	r.set("persist.tops_per_fsync", float64(tops)/float64(len(fsyncs)), "ratio")
	r.set("persist.write_bytes_per_top", float64(tr.written.Load())/float64(tops), "bytes")
	r.set("persist.save_ms_p50", percentile(ix.durations(spanSave), 0.5), "ms")

	r.detail("service.cache_hit_ratio", float64(hits)/float64(queries), "ratio")
	r.latency("service.hit", ix.handlerMS(spanService, ops, withDisp(dispHit)))
	r.latency("service.bottom", ix.handlerMS(spanService, ops, withDisp(dispBottom)))
	// How much of a replica's request the mechanism step accounts for:
	// near 1 on the compute-bound miss_large.
	r.detail("core.answer_share_of_handler", answer/handler, "ratio")
	if w.fleet != nil {
		var self []float64
		for _, o := range ops {
			h, ok1 := ix.byID[spanRoute][o.id]
			f, ok2 := ix.byID[spanForward][o.id]
			if o.ok && isQuery(o) && ok1 && ok2 {
				self = append(self, h.ms()-f.ms())
			}
		}
		resumes := latencies(ops, isResume)
		var remoteBytes int64
		for _, s := range ix.byName[spanRemote] {
			remoteBytes += max(s.Bytes, 0)
		}
		r.latency("route.self", self)
		r.latency("route.proxy", ix.handlerMS(spanForward, ops, isQuery))
		r.latency("service.resume", ix.handlerMS(spanService, ops, isResume))
		r.latency("persist.remote", ix.durations(spanRemote))
		r.latency("persist.load", ix.durations(spanLoad))
		r.detail("service.pagein_ratio", float64(len(ix.byName[spanLoad]))/float64(len(resumes)), "ratio")
		r.detail("persist.remote_bytes_per_top", float64(remoteBytes)/float64(tops), "bytes")
	}
	return r
}
