// Package a declares one case of each rule of the dead-code check.
package a

import (
	"math/rand"
	"net/http"
)

func FromCmd()     {}
func FromExample() {}
func FromBench()   {}
func TestOnly()    {}
func Allowed()     {}

type Iface interface{ M() }

// Asserted satisfies Iface only in a blank assertion.
type Asserted struct{}

func (*Asserted) M() {}

var _ Iface = (*Asserted)(nil)

// Built is used only by NewBuilt, which only tests call.
type Built struct{}

func NewBuilt() *Built { return &Built{} }

type Live struct{}

func (Live) M()            {}
func (Live) Accessor() int { return 0 }

// Nothing calls Flush directly: it implements http.Flusher.
type statusWriter struct{ http.ResponseWriter }

func (w *statusWriter) Flush() {}

func Wrap(w http.ResponseWriter) http.ResponseWriter { return &statusWriter{w} }

type countingSource struct{ n int64 }

func (s *countingSource) Int63() int64 { s.n++; return s.n }
func (s *countingSource) Seed(int64)   {}

func NewRand() *rand.Rand { return rand.New(&countingSource{}) }
