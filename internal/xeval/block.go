package xeval

import (
	"sync"

	"repro/internal/universe"
)

// pointBlock is one pooled row-major point matrix with its release
// function, which is built once per block and reused for every chunk the
// block serves, so handing a block out allocates nothing.
type pointBlock struct {
	rows    []float64
	release func()
}

// pointBuf pools the point blocks MaterializePoints hands out. Capacity
// grows to the largest chunk×dim the process sweeps and is then reused
// across chunks and sweeps, so steady-state kernels allocate nothing.
var pointBuf sync.Pool

// MaterializePoints returns the row-major materialization of universe
// elements [lo, hi): element lo+k occupies rows[k*dim:(k+1)*dim] with
// dim = u.Dim(). The release function returns the backing buffer to an
// internal pool; callers must not touch rows after calling it.
//
// Universes implementing universe.Block fill the whole matrix in one call
// — implicit product universes decode the index once and step an odometer
// instead of doing a full mixed-radix decode per element — and any other
// universe falls back to per-element PointInto. Both paths write exactly
// the universe's point vectors, so kernels that switch from per-element
// PointInto loops to a materialized block read bit-identical inputs in the
// same order.
func MaterializePoints(u universe.Universe, lo, hi int) (rows []float64, release func()) {
	dim := u.Dim()
	n := (hi - lo) * dim
	b, _ := pointBuf.Get().(*pointBlock)
	if b == nil {
		b = new(pointBlock)
		b.release = func() { pointBuf.Put(b) }
	}
	if cap(b.rows) < n {
		b.rows = make([]float64, n)
	}
	rows = b.rows[:n]
	if bl, ok := u.(universe.Block); ok {
		bl.PointsInto(lo, hi, rows)
	} else {
		for i := lo; i < hi; i++ {
			u.PointInto(i, rows[(i-lo)*dim:(i-lo+1)*dim])
		}
	}
	return rows, b.release
}
