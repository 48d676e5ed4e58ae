package main

import (
	"context"
	"fmt"
	"net"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"
)

// proc is one running pmwcm process.
type proc struct {
	cmd  *exec.Cmd
	url  string
	log  *tail
	done chan struct{}
}

// tail keeps the last bytes a process wrote to stderr, for error reports.
type tail struct {
	mu  sync.Mutex
	buf []byte
}

const tailBytes = 4096

func (t *tail) Write(p []byte) (int, error) {
	t.mu.Lock()
	t.buf = append(t.buf, p...)
	if len(t.buf) > 2*tailBytes {
		t.buf = append([]byte(nil), t.buf[len(t.buf)-tailBytes:]...)
	}
	t.mu.Unlock()
	return len(p), nil
}

func (t *tail) String() string {
	t.mu.Lock()
	defer t.mu.Unlock()
	b := t.buf
	if len(b) > tailBytes {
		b = b[len(b)-tailBytes:]
	}
	return string(b)
}

// freeAddr reserves a loopback port by binding and releasing it.
func freeAddr() (string, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return "", err
	}
	defer ln.Close()
	return ln.Addr().String(), nil
}

// startProc launches `bin sub -addr <free port> args...` and waits until
// its /healthz answers. The child is killed if the benchmark dies.
func startProc(ctx context.Context, bin, sub string, args ...string) (*proc, error) {
	addr, err := freeAddr()
	if err != nil {
		return nil, err
	}
	cmd := exec.Command(bin, append([]string{sub, "-addr", addr}, args...)...)
	p := &proc{cmd: cmd, url: "http://" + addr, log: &tail{}, done: make(chan struct{})}
	cmd.Stderr = p.log
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	if err := cmd.Start(); err != nil {
		return nil, err
	}
	go func() {
		cmd.Wait()
		close(p.done)
	}()
	if err := p.waitHealthy(ctx); err != nil {
		p.kill()
		return nil, fmt.Errorf("pmwcm %s: %w\n%s", sub, err, p.log)
	}
	return p, nil
}

func (p *proc) waitHealthy(ctx context.Context) error {
	client := &http.Client{Timeout: time.Second}
	deadline := time.Now().Add(60 * time.Second)
	for {
		resp, err := client.Get(p.url + "/healthz")
		if err == nil {
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return nil
			}
		}
		select {
		case <-p.done:
			return fmt.Errorf("exited before serving")
		case <-ctx.Done():
			return ctx.Err()
		case <-time.After(2 * time.Millisecond):
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("not healthy after 60s")
		}
	}
}

// kill SIGKILLs the process and waits for it to exit.
func (p *proc) kill() {
	p.cmd.Process.Kill()
	<-p.done
}

// cpuTicks is the process's user+system CPU time in clock ticks.
func (p *proc) cpuTicks() (int64, error) {
	data, err := os.ReadFile(filepath.Join("/proc", strconv.Itoa(p.cmd.Process.Pid), "stat"))
	if err != nil {
		return 0, err
	}
	// Fields after the parenthesized command name: state is field 3, utime 14, stime 15.
	s := string(data)
	f := strings.Fields(s[strings.LastIndexByte(s, ')')+1:])
	if len(f) < 13 {
		return 0, fmt.Errorf("short /proc stat for pid %d", p.cmd.Process.Pid)
	}
	utime, err1 := strconv.ParseInt(f[11], 10, 64)
	stime, err2 := strconv.ParseInt(f[12], 10, 64)
	if err1 != nil || err2 != nil {
		return 0, fmt.Errorf("parsing /proc stat for pid %d", p.cmd.Process.Pid)
	}
	return utime + stime, nil
}

// peakRSSKB is the process's high-water resident set size (VmHWM) in KiB.
func (p *proc) peakRSSKB() (int64, error) {
	data, err := os.ReadFile(filepath.Join("/proc", strconv.Itoa(p.cmd.Process.Pid), "status"))
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(data), "\n") {
		if v, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			return strconv.ParseInt(strings.TrimSuffix(strings.TrimSpace(v), " kB"), 10, 64)
		}
	}
	return 0, fmt.Errorf("no VmHWM for pid %d", p.cmd.Process.Pid)
}

// clockTick is the kernel's USER_HZ, the unit of /proc CPU times; it is 100
// on every Linux architecture Go supports.
const clockTick = 100

// restart SIGKILLs p and starts the same command again, on a new port.
func (p *proc) restart(ctx context.Context) (*proc, error) {
	p.kill()
	args := p.cmd.Args[1:]
	return startProc(ctx, p.cmd.Path, args[0], args[3:]...) // drop the old -addr
}

// system is one round's deployment of the program under test.
type system struct {
	url   string  // where the analysts send requests: the server, or the router
	procs []*proc // server processes (nil for an in-process deployment)
	stop  func()  // tears down an in-process deployment
}

func (s *system) close() {
	if s.stop != nil {
		s.stop()
	}
	stopAll(s.procs)
}

func (s *system) cpuTicks() (int64, error) {
	var sum int64
	for _, p := range s.procs {
		t, err := p.cpuTicks()
		if err != nil {
			return 0, err
		}
		sum += t
	}
	return sum, nil
}

func (s *system) peakRSSKB() (int64, error) {
	var peak int64
	for _, p := range s.procs {
		kb, err := p.peakRSSKB()
		if err != nil {
			return 0, err
		}
		peak = max(peak, kb)
	}
	return peak, nil
}

func stopAll(ps []*proc) {
	for _, p := range ps {
		p.kill()
	}
}

// deployProcs boots the workload's real server processes over dir.
func deployProcs(ctx context.Context, w *workload, bin, dir string) (*system, error) {
	if w.fleet == nil {
		p, err := startProc(ctx, bin, "serve", append(w.serveArgs(), "-state-dir", filepath.Join(dir, "state"))...)
		if err != nil {
			return nil, err
		}
		return &system{url: p.url, procs: []*proc{p}}, nil
	}
	var ps []*proc
	fail := func(err error) (*system, error) {
		stopAll(ps)
		return nil, err
	}
	store, err := startProc(ctx, bin, "store", "-dir", filepath.Join(dir, "store"))
	if err != nil {
		return fail(err)
	}
	ps = append(ps, store)
	var reps []string
	for i := 0; i < w.sessions; i++ {
		name := replicaName(i)
		r, err := startProc(ctx, bin, "serve", append(w.serveArgs(),
			"-store-url", store.url+"/v1/stores/"+name,
			"-max-resident", fmt.Sprint(maxResident), "-idle-ttl", idleTTL.String())...)
		if err != nil {
			return fail(err)
		}
		ps = append(ps, r)
		reps = append(reps, name+"="+r.url)
	}
	router, err := startProc(ctx, bin, "route", "-replicas", strings.Join(reps, ","), "-store-url", store.url)
	if err != nil {
		return fail(err)
	}
	ps = append(ps, router)
	return &system{url: router.url, procs: ps}, nil
}

// buildPMWCM compiles cmd/pmwcm from the checkout at root into dir.
func buildPMWCM(root, dir string) (string, error) {
	bin := filepath.Join(dir, "pmwcm")
	cmd := exec.Command("go", "build", "-o", bin, "./cmd/pmwcm")
	cmd.Dir = root
	cmd.Stdout = os.Stderr
	cmd.Stderr = os.Stderr
	if err := cmd.Run(); err != nil {
		return "", fmt.Errorf("building cmd/pmwcm: %w", err)
	}
	return bin, nil
}
