package main

import (
	"context"
	"encoding/json"
	"flag"
	"net"
	"net/http"
	"os"
	"os/signal"
	"syscall"
	"time"

	"repro/internal/fault"
	"repro/internal/obs"
	"repro/internal/persist"
)

// storeCmd runs the fleet blob store: the durable home for serve replicas
// started with -store-url. One store process holds every replica's state
// under per-replica namespaces; replicas reach it through
// persist.OpenRemote's blob protocol (atomic PUTs, conditional appends,
// fingerprint-verified GETs). The store is plain blob storage — it never
// decodes session state, so a fleet can mix replica versions as long as
// the envelope schema allows.
func storeCmd(args []string) error {
	fs := flag.NewFlagSet("store", flag.ContinueOnError)
	addr := fs.String("addr", ":9099", "listen address")
	dir := fs.String("dir", "", "blob root directory (one subdirectory per namespace)")
	faultPlan := fs.String("fault-plan", "", "DEV ONLY: deterministic fault-injection plan for blob writes (chaos drills)")
	logLevel := fs.String("log-level", "info", "request/startup log level (debug, info, warn, error)")
	logFormat := fs.String("log-format", "text", "log output format (text, json)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	logger, err := buildLogger(*logLevel, *logFormat)
	if err != nil {
		return err
	}

	fsys := fault.OS
	if *faultPlan != "" {
		plan, err := fault.ParsePlan(*faultPlan)
		if err != nil {
			return err
		}
		fsys = fault.Wrap(fault.OS, plan)
		logger.Warn("fault injection ACTIVE on the blob write path (dev only)", "plan", *faultPlan)
	}
	bs, err := persist.NewBlobServer(*dir, fsys)
	if err != nil {
		return err
	}
	reg := obs.NewRegistry()
	bs.Instrument(reg)

	mux := http.NewServeMux()
	mux.Handle("/v1/stores/", bs.Handler())
	mux.Handle("GET /metrics", obs.MetricsHandler(reg))
	mux.HandleFunc("GET /healthz", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		json.NewEncoder(w).Encode(map[string]any{"status": "ok", "root": bs.Root()})
	})
	mux.HandleFunc("GET /version", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		json.NewEncoder(w).Encode(obs.Version())
	})

	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		return err
	}
	srv := &http.Server{Handler: obs.Middleware(reg, mux, obs.MiddlewareOptions{Logger: logger})}
	logger.Info("blob store listening", "addr", ln.Addr().String(), "root", bs.Root(), "version", obs.Version().String())

	errCh := make(chan error, 1)
	go func() { errCh <- srv.Serve(ln) }()
	sigCh := make(chan os.Signal, 1)
	signal.Notify(sigCh, os.Interrupt, syscall.SIGTERM)
	select {
	case err := <-errCh:
		return err
	case sig := <-sigCh:
		logger.Info("shutting down", "signal", sig.String())
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		return srv.Shutdown(ctx)
	}
}
