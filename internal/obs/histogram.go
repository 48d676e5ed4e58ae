package obs

import (
	"math"
	"sort"
	"sync/atomic"
	"time"
)

// Default bucket bounds, in seconds, for latency histograms: sub-100µs
// cache hits through multi-second universe sweeps.
var DefBuckets = []float64{
	0.0001, 0.00025, 0.0005, 0.001, 0.0025, 0.005,
	0.01, 0.025, 0.05, 0.1, 0.25, 0.5, 1, 2.5, 5, 10,
}

// SizeBuckets are power-of-two bounds for count-valued histograms (batch
// sizes); the top bound matches the service's MaxBatchSize.
var SizeBuckets = []float64{1, 2, 4, 8, 16, 32, 64, 128, 256, 512, 1024}

// The rolling window a histogram's quantile readout covers: histSlots
// slots of histSlotDur each. A slot whose epoch has passed out of the
// window is lazily zeroed by the next writer that lands on it, so idle
// histograms cost nothing.
const (
	histSlots   = 4
	histSlotDur = 15 * time.Second
)

// Histogram is a fixed-bucket histogram with two synchronized views:
// lifetime cumulative buckets (Prometheus semantics — monotone
// _bucket/_sum/_count series) and a rolling ~60s window from which
// Quantile computes p50/p90/p99 for the JSON readout. Observations are
// lock-free: one atomic add per view plus an epoch check. All methods
// no-op (or return 0) on a nil receiver.
//
// The window is approximate by design: slot rotation may race an
// in-flight observation and drop it from the window (never from the
// lifetime view), which is acceptable for telemetry and keeps the hot
// path free of locks.
type Histogram struct {
	bounds []float64 // sorted upper bounds; implicit +Inf overflow bucket

	count   atomic.Uint64
	sumBits atomic.Uint64
	life    []atomic.Uint64 // len(bounds)+1, lifetime per-bucket counts

	slots [histSlots]histSlot
	now   func() time.Time // injectable for window tests
}

// histSlot is one window slot: an epoch stamp and per-bucket counts.
type histSlot struct {
	epoch   atomic.Int64
	buckets []atomic.Uint64
}

// newHistogram builds a histogram over the given bounds (copied, sorted).
func newHistogram(bounds []float64) *Histogram {
	bs := append([]float64(nil), bounds...)
	sort.Float64s(bs)
	h := &Histogram{bounds: bs, life: make([]atomic.Uint64, len(bs)+1), now: time.Now}
	for i := range h.slots {
		h.slots[i].buckets = make([]atomic.Uint64, len(bs)+1)
		h.slots[i].epoch.Store(-1)
	}
	return h
}

// Observe records one value.
func (h *Histogram) Observe(v float64) {
	if h == nil {
		return
	}
	b := sort.SearchFloat64s(h.bounds, v) // first bound >= v; len(bounds) = overflow
	h.life[b].Add(1)
	h.count.Add(1)
	addFloatBits(&h.sumBits, v)
	h.slot(h.epoch()).buckets[b].Add(1)
}

// epoch returns the current slot epoch (monotone wall-clock counter).
func (h *Histogram) epoch() int64 {
	return h.now().UnixNano() / int64(histSlotDur)
}

// slot returns the window slot for epoch e, zeroing it first if a prior
// epoch's counts are still resident. The CAS makes exactly one writer
// responsible for the reset.
func (h *Histogram) slot(e int64) *histSlot {
	s := &h.slots[int(e%histSlots)]
	for {
		old := s.epoch.Load()
		if old == e {
			return s
		}
		if s.epoch.CompareAndSwap(old, e) {
			for i := range s.buckets {
				s.buckets[i].Store(0)
			}
			return s
		}
	}
}

// windowCounts merges the per-bucket counts of every slot still inside
// the rolling window.
func (h *Histogram) windowCounts() []uint64 {
	cur := h.epoch()
	counts := make([]uint64, len(h.bounds)+1)
	for i := range h.slots {
		s := &h.slots[i]
		if e := s.epoch.Load(); e <= cur-histSlots || e > cur {
			continue // expired (or clock went backwards); a writer will reset it
		}
		for b := range s.buckets {
			counts[b] += s.buckets[b].Load()
		}
	}
	return counts
}

// Quantile returns the q-quantile (0 < q <= 1) of observations in the
// rolling window, linearly interpolated within the containing bucket.
// Values in the overflow bucket clamp to the largest bound; an empty
// window returns 0.
func (h *Histogram) Quantile(q float64) float64 {
	if h == nil {
		return 0
	}
	counts := h.windowCounts()
	var total uint64
	for _, c := range counts {
		total += c
	}
	if total == 0 {
		return 0
	}
	target := uint64(math.Ceil(q * float64(total)))
	if target == 0 {
		target = 1
	}
	var cum uint64
	for b, c := range counts {
		cum += c
		if cum < target {
			continue
		}
		if b >= len(h.bounds) { // overflow bucket: no finite upper bound
			return h.bounds[len(h.bounds)-1]
		}
		lo := 0.0
		if b > 0 {
			lo = h.bounds[b-1]
		}
		frac := float64(target-(cum-c)) / float64(c)
		return lo + frac*(h.bounds[b]-lo)
	}
	return h.bounds[len(h.bounds)-1] // unreachable: cum == total >= target
}

// Sum returns the lifetime sum of observed values.
func (h *Histogram) Sum() float64 {
	if h == nil {
		return 0
	}
	return math.Float64frombits(h.sumBits.Load())
}

// snapshot renders the histogram: lifetime cumulative buckets for the
// Prometheus view plus rolling-window quantiles for the JSON view.
func (h *Histogram) snapshot() SampleSnapshot {
	s := SampleSnapshot{
		Sum: h.Sum(),
		P50: h.Quantile(0.50),
		P90: h.Quantile(0.90),
		P99: h.Quantile(0.99),
	}
	var cum uint64
	s.Buckets = make([]BucketCount, 0, len(h.bounds)+1)
	for b, bound := range h.bounds {
		cum += h.life[b].Load()
		s.Buckets = append(s.Buckets, BucketCount{LE: bound, Count: cum})
	}
	cum += h.life[len(h.bounds)].Load()
	s.Buckets = append(s.Buckets, BucketCount{LE: math.Inf(1), Count: cum})
	// _count renders from the +Inf cumulative bucket so the pair stays
	// consistent under concurrent observation.
	s.Count = cum
	s.Value = float64(cum)
	return s
}
