package main

import (
	"io"
	"log/slog"
	"net"
	"net/http"
	"path/filepath"
	"runtime"
	"time"

	"repro/internal/obs"
	"repro/internal/persist"
	"repro/internal/route"
	"repro/internal/service"
)

// deployInProc runs the workload's servers inside the benchmark process,
// assembled the way `pmwcm serve`, `store` and `route` assemble them, each
// on its own loopback listener. With a tracer, its wrappers sit at every
// layer's public seam.
func deployInProc(w *workload, dir string, tr *tracer) (*system, error) {
	var stops []func()
	stop := func() {
		for i := len(stops) - 1; i >= 0; i-- {
			stops[i]()
		}
	}
	fail := func(err error) (*system, error) {
		stop()
		return nil, err
	}
	if w.fleet == nil {
		store, err := persist.OpenFS(filepath.Join(dir, "state"), tr.fs())
		if err != nil {
			return nil, err
		}
		url, err := serveManager(w, tr.backend(store), tr, &stops)
		if err != nil {
			return fail(err)
		}
		return &system{url: url, stop: stop}, nil
	}

	bs, err := persist.NewBlobServer(filepath.Join(dir, "store"), tr.fs())
	if err != nil {
		return nil, err
	}
	reg := obs.NewRegistry()
	bs.Instrument(reg)
	mux := http.NewServeMux()
	mux.Handle("/v1/stores/", bs.Handler())
	storeURL, err := listen(obs.Middleware(reg, mux, logOptions()), &stops)
	if err != nil {
		return fail(err)
	}
	var reps []route.Replica
	for i := 0; i < w.sessions; i++ {
		name := replicaName(i)
		remote, err := persist.OpenRemote(storeURL+"/v1/stores/"+name, persist.RemoteOptions{
			Client: &http.Client{Timeout: 10 * time.Second, Transport: tr.transport(spanRemote)},
		})
		if err != nil {
			return fail(err)
		}
		url, err := serveManager(w, tr.backend(remote), tr, &stops)
		if err != nil {
			return fail(err)
		}
		reps = append(reps, route.Replica{Name: name, URL: url})
	}
	rreg := obs.NewRegistry()
	rt, err := route.New(reps, route.Options{
		Client:   &http.Client{Timeout: 15 * time.Second, Transport: tr.transport(spanForward)},
		StoreURL: storeURL,
		Metrics:  rreg,
	})
	if err != nil {
		return fail(err)
	}
	url, err := listen(tr.handler(spanRoute, obs.Middleware(rreg, rt.Handler(), logOptions())), &stops)
	if err != nil {
		return fail(err)
	}
	return &system{url: url, stop: stop}, nil
}

// serveManager starts one replica over store: a session manager with the
// serve command's defaults (WAL on a state directory; eviction on a remote
// store) behind its metrics and logging middleware.
func serveManager(w *workload, store persist.Backend, tr *tracer, stops *[]func()) (string, error) {
	data, src, err := serveData(w)
	if err != nil {
		return "", err
	}
	oracle, err := service.OracleByName("noisygd", runtime.NumCPU())
	if err != nil {
		return "", err
	}
	reg := obs.NewRegistry()
	cfg := service.Config{
		Data:     data,
		Source:   src,
		Oracle:   oracle,
		Defaults: service.SessionParams{Workers: runtime.NumCPU()},
		Store:    store,
		Metrics:  reg,
	}
	if w.fleet == nil {
		cfg.WAL = true
	} else {
		cfg.MaxResident, cfg.IdleTTL = maxResident, idleTTL
	}
	mgr, err := service.New(cfg)
	if err != nil {
		return "", err
	}
	*stops = append(*stops, mgr.Shutdown)
	opts := logOptions()
	opts.SessionInfo = mgr.SessionAccountant
	return listen(tr.handler(spanService, obs.Middleware(reg, service.NewHandler(mgr), opts)), stops)
}

// logOptions logs every request at info level, as the commands do, into a
// discarded stream.
func logOptions() obs.MiddlewareOptions {
	return obs.MiddlewareOptions{Logger: slog.New(slog.NewTextHandler(io.Discard, nil))}
}

// listen serves h on a fresh loopback port until the returned stop runs.
func listen(h http.Handler, stops *[]func()) (string, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return "", err
	}
	srv := &http.Server{Handler: h}
	done := make(chan struct{})
	go func() {
		srv.Serve(ln)
		close(done)
	}()
	*stops = append(*stops, func() {
		srv.Close()
		<-done
	})
	return "http://" + ln.Addr().String(), nil
}
