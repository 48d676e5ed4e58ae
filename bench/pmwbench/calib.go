package main

import (
	"math"
	"runtime"
	"sync"
	"syscall"
	"time"
	"unsafe"
)

// The host is a virtual machine shared with other tenants, and its speed
// changes for minutes at a time: the same fixed work, CPU time included,
// can take a third longer. So a run measures the host as well as the
// program. A calibrator goroutine times a fixed chunk of the benchmark's
// own arithmetic, which never calls into the repository, in thread CPU
// time a few times a second for the whole run, and each round's
// end-to-end times are divided by the host's slowdown during that round,
// so that they read as at the reference host's speed.
//
// When the host is busy the servers slow more than the chunk does: over
// three sets of forty runs, the log of a workload's times rose 1.5 to 2.6
// times as fast as the log of the chunk's, and on the idle host a mix of
// JSON, maps, sorting, hashing and formatting drifted 1.9 times as far as
// the chunk. So the host's slowdown is taken as the square of the chunk's.
// The chunk itself is kept to arithmetic in the first-level cache: it
// allocates nothing, so the run's load does not move it through the
// garbage collector, and its samples barely scatter.
const (
	calPeriod   = 20 * time.Millisecond // pause between two chunks
	calTableLen = 1 << 12               // float64s the chunk works over: 32 KiB
	calIters    = 40000
	// refChunkMS is the median thread CPU time of one chunk on the
	// reference host (2-vCPU Intel Xeon VM at 2.0 GHz, go1.24) while idle.
	refChunkMS = 0.44
	// hostExponent turns the chunk's slowdown into the servers'.
	hostExponent = 2
)

// calibrator samples the reference chunk until closed.
type calibrator struct {
	stop chan struct{}
	done chan struct{}

	mu      sync.Mutex
	samples []calSample
}

type calSample struct {
	at time.Time
	ms float64 // thread CPU time of one chunk
}

var calSink float64

func startCalibrator() *calibrator {
	c := &calibrator{stop: make(chan struct{}), done: make(chan struct{})}
	go c.loop()
	return c
}

func (c *calibrator) loop() {
	defer close(c.done)
	// Thread CPU time is only meaningful while the goroutine keeps its
	// thread.
	runtime.LockOSThread()
	defer runtime.UnlockOSThread()
	table := make([]float64, calTableLen)
	tick := time.NewTicker(calPeriod)
	defer tick.Stop()
	for {
		t0 := threadCPU()
		calSink += calChunk(table)
		ms := float64(threadCPU()-t0) / 1e6
		c.mu.Lock()
		c.samples = append(c.samples, calSample{at: time.Now(), ms: ms})
		c.mu.Unlock()
		select {
		case <-c.stop:
			return
		case <-tick.C:
		}
	}
}

// close stops the sampling goroutine and waits for it to exit.
func (c *calibrator) close() {
	close(c.stop)
	<-c.done
}

// slowdown is how much slower than the idle reference host the host ran
// the servers' work between from and to: the median chunk time there over
// the reference host's, squared. With fewer than five samples in the
// window it takes the whole run's median instead.
func (c *calibrator) slowdown(from, to time.Time) float64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	var in, all []float64
	for _, s := range c.samples {
		all = append(all, s.ms)
		if !s.at.Before(from) && !s.at.After(to) {
			in = append(in, s.ms)
		}
	}
	if len(in) < 5 {
		in = all
	}
	if len(in) == 0 {
		return 1
	}
	return math.Pow(median(in)/refChunkMS, hostExponent)
}

// calChunk is integer hashing, floating-point arithmetic and
// data-dependent loads and stores over a table in the first-level cache.
func calChunk(table []float64) float64 {
	h := uint64(0x9e3779b97f4a7c15)
	x := 1.0
	for i := 0; i < calIters; i++ {
		h ^= h << 13
		h ^= h >> 7
		h ^= h << 17
		j := int(h % calTableLen)
		table[j] = table[j]*0.5 + math.Sqrt(x)
		x += table[j] * 1e-6
		if x > 1e6 {
			x = 1
		}
	}
	return x
}

// threadCPU is the calling thread's CPU time.
func threadCPU() time.Duration {
	const clockThreadCPUTimeID = 3
	var ts syscall.Timespec
	syscall.Syscall(syscall.SYS_CLOCK_GETTIME, clockThreadCPUTimeID, uintptr(unsafe.Pointer(&ts)), 0)
	return time.Duration(ts.Nano())
}
