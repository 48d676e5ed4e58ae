package fault

// inject.go is the injecting FS: it wraps an inner FS, numbers every
// mutating operation with one global op counter, and consults a Plan at
// each op. A plan can record the op stream (tracing a clean run to
// enumerate its fault points), fail a single numbered op (transient I/O
// error or torn write), or crash: latch the filesystem so the faulted op
// and everything after it fails, simulating the process dying at exactly
// that syscall. Crashes latch rather than panic deliberately — durable
// writes run on many goroutines (concurrent request handlers, the idle
// sweep, shutdown), where a panic would kill the test process instead of
// simulating the server's death; a latched FS lets the drill abandon the
// "dead" manager and recover from disk, which is what a real restart
// does.

import (
	"errors"
	"fmt"
	"io/fs"
	"math/rand"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"sync"
	"syscall"
)

// Injection sentinels, detectable through errors.Is on anything a faulted
// operation returns.
var (
	// ErrInjected marks every error produced by a fault plan (transient
	// errors wrap it together with syscall.ENOSPC).
	ErrInjected = errors.New("fault: injected I/O error")
	// ErrCrashed marks operations refused because the plan's crash point
	// has fired: the simulated process is dead and no later write lands.
	ErrCrashed = errors.New("fault: filesystem crashed")
)

// Op kinds, in the Kind fields of Op and Fault. Reads (Stat, ReadFile,
// ReadDir) are not numbered: drills target the write path, and recovery
// runs on a clean FS anyway.
const (
	OpMkdir    = "mkdir"
	OpCreate   = "create" // CreateTemp
	OpOpen     = "open"   // OpenFile
	OpWrite    = "write"
	OpSync     = "sync"
	OpRename   = "rename"
	OpRemove   = "remove"
	OpTruncate = "truncate"
)

// Op is one numbered mutating operation observed by a tracing plan — a
// fault point a schedule can target.
type Op struct {
	// N is the global op index (0-based, in execution order).
	N int
	// Kind is one of the Op* constants.
	Kind string
	// Path is the base name of the file operated on.
	Path string
}

// Fault modes.
const (
	// ModeErr fails the op with a transient error (wrapping ENOSPC);
	// nothing of the op takes effect and later ops proceed normally.
	ModeErr = "error"
	// ModeTorn applies to writes: only the first Bytes bytes land, then
	// the op fails as ModeErr. On non-write ops it degrades to ModeErr.
	ModeTorn = "torn"
	// ModeCrash simulates the process dying at the op: for writes the
	// first Bytes bytes land, then the op and every later mutating op
	// fail with ErrCrashed.
	ModeCrash = "crash"
)

// Fault is one planned injection.
type Fault struct {
	// Op is the exact op index the fault fires at; -1 makes the fault
	// sticky: it fires on every op of the matching Kind numbered >= After.
	Op int
	// Kind optionally restricts a sticky (Op == -1) fault to one op kind;
	// empty matches every kind.
	Kind string
	// After is the first op index a sticky fault may fire at.
	After int
	// Mode is ModeErr, ModeTorn, or ModeCrash.
	Mode string
	// Bytes is the torn-write prefix that still lands (ModeTorn,
	// ModeCrash on write ops).
	Bytes int
}

// String renders the fault in the -fault-plan syntax.
func (f Fault) String() string {
	if f.Op < 0 {
		k := f.Kind
		if k == "" {
			k = "any"
		}
		return fmt.Sprintf("%s@%s+%d", f.Mode, k, f.After)
	}
	if f.Mode == ModeTorn || (f.Mode == ModeCrash && f.Bytes > 0) {
		return fmt.Sprintf("%s@%d:%d", f.Mode, f.Op, f.Bytes)
	}
	return fmt.Sprintf("%s@%d", f.Mode, f.Op)
}

// Plan is the deterministic schedule an injecting FS consults: which ops
// to fail and how, plus the op trace when tracing. Safe for concurrent
// use; the op numbering is a single global sequence, so a run that issues
// the same operations in the same order sees the same indices.
type Plan struct {
	// Tracing records every numbered op so a clean run enumerates its
	// fault points. Set before use; not synchronized.
	Tracing bool

	faults []Fault

	mu      sync.Mutex
	n       int
	trace   []Op
	fired   int
	crashed bool
}

// NewPlan returns a plan injecting the given faults (none = passthrough,
// useful with Tracing to enumerate fault points).
func NewPlan(faults ...Fault) *Plan {
	return &Plan{faults: faults}
}

// Ops returns how many mutating operations have been numbered so far.
func (p *Plan) Ops() int {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.n
}

// Trace returns a copy of the recorded op stream (empty unless Tracing).
func (p *Plan) Trace() []Op {
	p.mu.Lock()
	defer p.mu.Unlock()
	return append([]Op(nil), p.trace...)
}

// Fired returns how many faults have been injected.
func (p *Plan) Fired() int {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.fired
}

// Crashed reports whether the crash point has fired: the simulated
// process is dead and every mutating op fails until recovery reopens the
// directory through a clean FS.
func (p *Plan) Crashed() bool {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.crashed
}

// step numbers one mutating op and decides its fate: fault == nil means
// proceed. Called once per op by the injecting FS.
func (p *Plan) step(kind, path string) (n int, fault *Fault, crashed bool) {
	p.mu.Lock()
	defer p.mu.Unlock()
	n = p.n
	p.n++
	if p.Tracing {
		p.trace = append(p.trace, Op{N: n, Kind: kind, Path: filepath.Base(path)})
	}
	if p.crashed {
		return n, nil, true
	}
	for i := range p.faults {
		f := &p.faults[i]
		hit := f.Op == n || (f.Op < 0 && n >= f.After && (f.Kind == "" || f.Kind == kind))
		if !hit {
			continue
		}
		p.fired++
		if f.Mode == ModeCrash {
			p.crashed = true
		}
		fc := *f
		return n, &fc, false
	}
	return n, nil, false
}

// errInjected builds the transient-fault error for op n.
func errInjected(n int, kind, path string) error {
	return fmt.Errorf("fault: op %d (%s %s): %w: %w", n, kind, filepath.Base(path), ErrInjected, syscall.ENOSPC)
}

// errCrashed builds the post-crash refusal for op n.
func errCrashed(n int, kind, path string) error {
	return fmt.Errorf("fault: op %d (%s %s): %w", n, kind, filepath.Base(path), ErrCrashed)
}

// Wrap returns an FS that forwards to inner while numbering mutating ops
// and injecting plan's faults.
func Wrap(inner FS, plan *Plan) FS {
	return &injectFS{inner: inner, plan: plan}
}

// injectFS is the injecting FS implementation.
type injectFS struct {
	inner FS
	plan  *Plan
}

// gate numbers one op and returns the error to inject, or nil to proceed.
// Torn handling needs the fault itself, so write paths use step directly.
func (i *injectFS) gate(kind, path string) error {
	n, f, crashed := i.plan.step(kind, path)
	if crashed {
		return errCrashed(n, kind, path)
	}
	if f == nil {
		return nil
	}
	if f.Mode == ModeCrash {
		return errCrashed(n, kind, path)
	}
	return errInjected(n, kind, path)
}

func (i *injectFS) OpenFile(name string, flag int, perm fs.FileMode) (File, error) {
	if err := i.gate(OpOpen, name); err != nil {
		return nil, err
	}
	f, err := i.inner.OpenFile(name, flag, perm)
	if err != nil {
		return nil, err
	}
	return &injectFile{inner: f, fs: i}, nil
}

func (i *injectFS) CreateTemp(dir, pattern string) (File, error) {
	if err := i.gate(OpCreate, pattern); err != nil {
		return nil, err
	}
	f, err := i.inner.CreateTemp(dir, pattern)
	if err != nil {
		return nil, err
	}
	return &injectFile{inner: f, fs: i}, nil
}

func (i *injectFS) Rename(oldpath, newpath string) error {
	if err := i.gate(OpRename, newpath); err != nil {
		return err
	}
	return i.inner.Rename(oldpath, newpath)
}

func (i *injectFS) Remove(name string) error {
	if err := i.gate(OpRemove, name); err != nil {
		return err
	}
	return i.inner.Remove(name)
}

func (i *injectFS) MkdirAll(path string, perm fs.FileMode) error {
	if err := i.gate(OpMkdir, path); err != nil {
		return err
	}
	return i.inner.MkdirAll(path, perm)
}

// Reads pass through un-numbered: the write path is the drill target, and
// recovery reads through a clean FS.
func (i *injectFS) Stat(name string) (fs.FileInfo, error)      { return i.inner.Stat(name) }
func (i *injectFS) ReadFile(name string) ([]byte, error)       { return i.inner.ReadFile(name) }
func (i *injectFS) ReadDir(name string) ([]fs.DirEntry, error) { return i.inner.ReadDir(name) }

// injectFile wraps an open file, numbering its writes, syncs, and
// truncates through the owning plan.
type injectFile struct {
	inner File
	fs    *injectFS
}

func (f *injectFile) Write(p []byte) (int, error) {
	n, flt, crashed := f.fs.plan.step(OpWrite, f.inner.Name())
	if crashed {
		return 0, errCrashed(n, OpWrite, f.inner.Name())
	}
	if flt == nil {
		return f.inner.Write(p)
	}
	// Torn write: land a prefix before failing, the way a crash mid-write
	// leaves a partial page on disk.
	k := flt.Bytes
	if k > len(p) {
		k = len(p)
	}
	wrote := 0
	if (flt.Mode == ModeTorn || flt.Mode == ModeCrash) && k > 0 {
		wrote, _ = f.inner.Write(p[:k])
	}
	if flt.Mode == ModeCrash {
		return wrote, errCrashed(n, OpWrite, f.inner.Name())
	}
	return wrote, errInjected(n, OpWrite, f.inner.Name())
}

func (f *injectFile) Sync() error {
	if err := f.fs.gate(OpSync, f.inner.Name()); err != nil {
		return err
	}
	return f.inner.Sync()
}

func (f *injectFile) Truncate(size int64) error {
	if err := f.fs.gate(OpTruncate, f.inner.Name()); err != nil {
		return err
	}
	return f.inner.Truncate(size)
}

// Close, reads, and seeks pass through: closing releases the descriptor
// even on a "dead" filesystem, and the drill's recovery reads never go
// through the injecting FS.
func (f *injectFile) Read(p []byte) (int, error)         { return f.inner.Read(p) }
func (f *injectFile) Seek(o int64, w int) (int64, error) { return f.inner.Seek(o, w) }
func (f *injectFile) Close() error                       { return f.inner.Close() }
func (f *injectFile) Name() string                       { return f.inner.Name() }
func (f *injectFile) Stat() (fs.FileInfo, error)         { return f.inner.Stat() }

// Seeded derives one deterministic fault from a seed: an op index uniform
// over [0, window), a mode, and a torn-prefix length. Equal seeds and
// windows give equal faults, which is what makes a drill schedule
// replayable from its seed alone.
func Seeded(seed int64, window int) Fault {
	if window < 1 {
		window = 1
	}
	rng := rand.New(rand.NewSource(seed))
	modes := []string{ModeErr, ModeTorn, ModeCrash}
	return Fault{
		Op:    rng.Intn(window),
		Mode:  modes[rng.Intn(len(modes))],
		Bytes: rng.Intn(24),
	}
}

// SeededPlan derives a plan of count distinct-op faults over [0, window),
// restricted to the given modes (nil = all three). Used by the serve
// -fault-plan "seed=…" form.
func SeededPlan(seed int64, window, count int, modes []string) *Plan {
	if len(modes) == 0 {
		modes = []string{ModeErr, ModeTorn, ModeCrash}
	}
	if window < 1 {
		window = 1
	}
	if count > window {
		count = window
	}
	rng := rand.New(rand.NewSource(seed))
	ops := map[int]bool{}
	faults := make([]Fault, 0, count)
	for len(faults) < count {
		op := rng.Intn(window)
		if ops[op] {
			continue
		}
		ops[op] = true
		faults = append(faults, Fault{
			Op:    op,
			Mode:  modes[rng.Intn(len(modes))],
			Bytes: rng.Intn(24),
		})
	}
	sort.Slice(faults, func(a, b int) bool { return faults[a].Op < faults[b].Op })
	return NewPlan(faults...)
}

// ParsePlan parses the -fault-plan flag syntax. Two forms:
//
//	seed=7,window=400,faults=3[,modes=error+torn]
//
// derives a SeededPlan, and a comma-separated explicit list
//
//	error@12,torn@40:3,crash@77,error@sync+100
//
// where mode@N fails op N, mode@N:K lands a K-byte torn prefix first, and
// mode@kind+N is sticky: every op of that kind from index N on.
func ParsePlan(spec string) (*Plan, error) {
	spec = strings.TrimSpace(spec)
	if spec == "" {
		return nil, fmt.Errorf("fault: empty plan")
	}
	if strings.Contains(spec, "seed=") {
		return parseSeededPlan(spec)
	}
	var faults []Fault
	for _, item := range strings.Split(spec, ",") {
		f, err := parseFault(strings.TrimSpace(item))
		if err != nil {
			return nil, err
		}
		faults = append(faults, f)
	}
	return NewPlan(faults...), nil
}

// parseSeededPlan parses the seed=…,window=…,faults=… form.
func parseSeededPlan(spec string) (*Plan, error) {
	var seed int64
	window, count := 1000, 1
	var modes []string
	for _, item := range strings.Split(spec, ",") {
		key, val, ok := strings.Cut(strings.TrimSpace(item), "=")
		if !ok {
			return nil, fmt.Errorf("fault: plan item %q: want key=value", item)
		}
		switch key {
		case "seed":
			v, err := strconv.ParseInt(val, 10, 64)
			if err != nil {
				return nil, fmt.Errorf("fault: plan seed %q: %w", val, err)
			}
			seed = v
		case "window":
			v, err := strconv.Atoi(val)
			if err != nil || v < 1 {
				return nil, fmt.Errorf("fault: plan window %q: want positive integer", val)
			}
			window = v
		case "faults":
			v, err := strconv.Atoi(val)
			if err != nil || v < 1 {
				return nil, fmt.Errorf("fault: plan faults %q: want positive integer", val)
			}
			count = v
		case "modes":
			for _, m := range strings.Split(val, "+") {
				if m != ModeErr && m != ModeTorn && m != ModeCrash {
					return nil, fmt.Errorf("fault: plan mode %q (have error, torn, crash)", m)
				}
				modes = append(modes, m)
			}
		default:
			return nil, fmt.Errorf("fault: unknown plan key %q", key)
		}
	}
	return SeededPlan(seed, window, count, modes), nil
}

// parseFault parses one explicit mode@target item.
func parseFault(item string) (Fault, error) {
	mode, target, ok := strings.Cut(item, "@")
	if !ok {
		return Fault{}, fmt.Errorf("fault: plan item %q: want mode@op", item)
	}
	if mode != ModeErr && mode != ModeTorn && mode != ModeCrash {
		return Fault{}, fmt.Errorf("fault: plan mode %q (have error, torn, crash)", mode)
	}
	f := Fault{Mode: mode}
	if kind, after, sticky := strings.Cut(target, "+"); sticky {
		switch kind {
		case OpMkdir, OpCreate, OpOpen, OpWrite, OpSync, OpRename, OpRemove, OpTruncate, "any":
		default:
			return Fault{}, fmt.Errorf("fault: plan op kind %q", kind)
		}
		f.Op = -1
		if kind != "any" {
			f.Kind = kind
		}
		v, err := strconv.Atoi(after)
		if err != nil || v < 0 {
			return Fault{}, fmt.Errorf("fault: plan item %q: bad sticky start", item)
		}
		f.After = v
		return f, nil
	}
	opStr, bytesStr, hasBytes := strings.Cut(target, ":")
	op, err := strconv.Atoi(opStr)
	if err != nil || op < 0 {
		return Fault{}, fmt.Errorf("fault: plan item %q: bad op index", item)
	}
	f.Op = op
	if hasBytes {
		b, err := strconv.Atoi(bytesStr)
		if err != nil || b < 0 {
			return Fault{}, fmt.Errorf("fault: plan item %q: bad torn byte count", item)
		}
		f.Bytes = b
	}
	return f, nil
}
