package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"log/slog"
	"net"
	"net/http"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"repro/internal/dataio"
	"repro/internal/dataset"
	"repro/internal/fault"
	"repro/internal/mech"
	"repro/internal/obs"
	"repro/internal/persist"
	"repro/internal/sample"
	"repro/internal/service"
	"repro/internal/universe"
)

// buildLogger constructs the serve command's slog logger from the
// -log-level and -log-format flags.
func buildLogger(level, format string) (*slog.Logger, error) {
	var lvl slog.Level
	switch strings.ToLower(level) {
	case "debug":
		lvl = slog.LevelDebug
	case "", "info":
		lvl = slog.LevelInfo
	case "warn", "warning":
		lvl = slog.LevelWarn
	case "error":
		lvl = slog.LevelError
	default:
		return nil, fmt.Errorf("unknown -log-level %q (have debug, info, warn, error)", level)
	}
	opts := &slog.HandlerOptions{Level: lvl}
	var h slog.Handler
	switch strings.ToLower(format) {
	case "", "text":
		h = slog.NewTextHandler(os.Stderr, opts)
	case "json":
		h = slog.NewJSONHandler(os.Stderr, opts)
	default:
		return nil, fmt.Errorf("unknown -log-format %q (have text, json)", format)
	}
	return slog.New(h), nil
}

// serveCmd starts the interactive query-serving subsystem: it loads (or
// synthesizes) a private dataset over a labeled-grid universe, then serves
// the session-based HTTP/JSON API of internal/service until interrupted.
// Observability is always on: every request is counted and logged through
// internal/obs, and GET /metrics exposes the registry.
func serveCmd(args []string) error {
	fs := flag.NewFlagSet("serve", flag.ContinueOnError)
	addr := fs.String("addr", ":8787", "listen address")

	// Universe shape (must match the data's columns: dim features + label).
	dim := fs.Int("dim", 2, "number of feature columns")
	levels := fs.Int("levels", 3, "grid levels per feature coordinate")
	labels := fs.Int("labels", 3, "grid levels for the label")
	featR := fs.Float64("featradius", 1.0, "feature ball radius")
	labelR := fs.Float64("labelradius", 1.0, "label range half-width")

	// Data: a CSV path, or a synthetic skewed sample when omitted.
	dataPath := fs.String("data", "", "CSV of private records (features..., label); empty = synthesize")
	header := fs.Bool("header", false, "input CSV has a header row")
	rows := fs.Int("rows", 200000, "synthetic dataset size (when -data is empty)")
	skew := fs.Float64("skew", 1.3, "synthetic population skew exponent")

	// Default session budget; analysts can override per session.
	defaults := service.DefaultSessionParams()
	eps := fs.Float64("eps", defaults.Eps, "default session privacy budget ε")
	delta := fs.Float64("delta", defaults.Delta, "default session privacy budget δ")
	alpha := fs.Float64("alpha", defaults.Alpha, "default excess-risk accuracy target α")
	beta := fs.Float64("beta", defaults.Beta, "default failure probability β")
	k := fs.Int("k", defaults.K, "default per-session query cap K")
	tBudget := fs.Int("tbudget", defaults.TBudget, "default MW update horizon (0 = paper worst case)")
	scale := fs.Float64("s", defaults.S, "default loss-family scale bound S")

	oracleName := fs.String("oracle", "noisygd", "single-query oracle (noisygd, netexp, outputperturb, glmreduce, laplace-linear)")
	accountant := fs.String("accountant", "", "default privacy accountant per session ("+strings.Join(mech.AccountantNames(), ", ")+"; empty = "+mech.DefaultAccountant+")")
	maxSessions := fs.Int("maxsessions", 64, "maximum concurrently open sessions")
	maxK := fs.Int("maxk", 100000, "maximum per-session query cap an analyst may request")
	seed := fs.Int64("seed", 1, "random seed for all mechanism noise")
	stateDir := fs.String("state-dir", "", "session state directory: every budget spend is logged before its answer is released, sessions snapshot on shutdown, and are restored on startup (empty = memory only; budget state dies with the process)")
	storeURL := fs.String("store-url", "", "remote blob-store base URL (a `pmwcm store` endpoint, e.g. http://host:9099/v1/stores/r1): the same logs and snapshots as -state-dir, kept as blobs over HTTP with fingerprint-verified loads; mutually exclusive with -state-dir")
	maxResident := fs.Int("max-resident", 0, "cap on live sessions held in memory: past it the least-recently-used sessions are evicted to the store and paged back in on their next touch (0 = unlimited; requires -state-dir or -store-url)")
	idleTTL := fs.Duration("idle-ttl", 0, "evict live sessions untouched for this long (0 = never; requires -state-dir or -store-url)")
	compactEvery := fs.Int("compact-every", 0, "fold a session's write-ahead log into its snapshot after this many records (0 = 256; needs -state-dir or -store-url)")
	faultPlan := fs.String("fault-plan", "", "DEV ONLY: deterministic fault-injection plan for the durability write path (chaos drills; e.g. 'error@40,torn@90:7' or 'seed=7,window=400,faults=3,modes=error+torn'); requires -state-dir")
	logLevel := fs.String("log-level", "info", "request/startup log level (debug, info, warn, error)")
	logFormat := fs.String("log-format", "text", "log output format (text, json)")
	if err := fs.Parse(args); err != nil {
		return err
	}

	logger, err := buildLogger(*logLevel, *logFormat)
	if err != nil {
		return err
	}

	g, err := universe.NewLabeledGrid(*dim, *levels, *featR, *labels, *labelR)
	if err != nil {
		return err
	}
	src := sample.New(*seed)

	var data *dataset.Dataset
	if *dataPath != "" {
		var in io.Reader = os.Stdin
		if *dataPath != "-" {
			f, err := os.Open(*dataPath)
			if err != nil {
				return err
			}
			defer f.Close()
			in = f
		}
		if data, err = dataio.LoadCSV(in, g, *header); err != nil {
			return err
		}
	} else {
		pop, err := dataset.Skewed(g, *skew)
		if err != nil {
			return err
		}
		data = dataset.SampleFrom(src.Split(), pop, *rows)
	}

	oracle, err := service.OracleByName(*oracleName, 0)
	if err != nil {
		return err
	}
	// -state-dir makes sessions durable: with the same flags (dataset,
	// seed, oracle) a restarted server restores every session and continues
	// it bit-identically; recovery refuses a state directory whose manifest
	// fingerprints a different dataset. -store-url does the same through a
	// remote `pmwcm store` blob endpoint — the fleet deployment, where
	// replicas keep no local state. The backend variable (not the concrete
	// *persist.Store) goes into the config, so a nil *Store can never hide
	// inside a non-nil interface.
	var backend persist.Backend
	if *stateDir != "" && *storeURL != "" {
		return fmt.Errorf("-state-dir and -store-url are mutually exclusive (one durable home per replica)")
	}
	if *stateDir != "" {
		fsys := fault.OS
		if *faultPlan != "" {
			plan, err := fault.ParsePlan(*faultPlan)
			if err != nil {
				return err
			}
			fsys = fault.Wrap(fault.OS, plan)
			logger.Warn("fault injection ACTIVE on the durability write path (dev only)", "plan", *faultPlan)
		}
		store, err := persist.OpenFS(*stateDir, fsys)
		if err != nil {
			return err
		}
		backend = store
	} else if *storeURL != "" {
		if *faultPlan != "" {
			return fmt.Errorf("-fault-plan requires -state-dir (the store process owns the remote write path; pass it there)")
		}
		remote, err := persist.OpenRemote(*storeURL, persist.RemoteOptions{})
		if err != nil {
			return err
		}
		backend = remote
	} else if *faultPlan != "" {
		return fmt.Errorf("-fault-plan requires -state-dir")
	}
	if (*maxResident > 0 || *idleTTL > 0) && backend == nil {
		return fmt.Errorf("-max-resident/-idle-ttl require a durable store (-state-dir or -store-url): an evicted session must have somewhere to live")
	}
	// The metrics registry observes everything but perturbs nothing: the
	// served answers are bit-identical with or without it.
	reg := obs.NewRegistry()

	mgr, err := service.New(service.Config{
		Data:   data,
		Source: src.Split(),
		Oracle: oracle,
		Defaults: service.SessionParams{
			Eps: *eps, Delta: *delta,
			Alpha: *alpha, Beta: *beta,
			K: *k, TBudget: *tBudget, S: *scale,
			Accountant: *accountant,
		},
		Limits:       service.Limits{MaxSessions: *maxSessions, MaxK: *maxK},
		Store:        backend,
		Metrics:      reg,
		CompactEvery: *compactEvery,
		MaxResident:  *maxResident,
		IdleTTL:      *idleTTL,
	})
	if err != nil {
		return err
	}
	logger.Info("starting", "version", obs.Version().String())
	if backend != nil {
		logger.Info("durable store opened", "location", backend.Location(),
			"restored_live_sessions", mgr.OpenSessions(),
			"max_resident", *maxResident, "idle_ttl", idleTTL.String())
	}

	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		return err
	}
	handler := obs.Middleware(reg, service.NewHandler(mgr), obs.MiddlewareOptions{
		Logger:      logger,
		SessionInfo: mgr.SessionAccountant,
	})
	srv := &http.Server{Handler: handler}
	logger.Info("listening",
		"addr", ln.Addr().String(), "n", data.N(), "universe", g.String(),
		"oracle", oracle.Name(), "accountant", mgr.Defaults().Accountant,
		"eps", *eps, "delta", *delta, "alpha", *alpha, "k", *k)

	// Graceful shutdown: stop accepting, drain in-flight requests, then
	// suspend every session — with -state-dir each live session is
	// checkpointed for the next start to resume.
	errCh := make(chan error, 1)
	go func() { errCh <- srv.Serve(ln) }()
	sigCh := make(chan os.Signal, 1)
	signal.Notify(sigCh, os.Interrupt, syscall.SIGTERM)
	select {
	case err := <-errCh:
		mgr.Shutdown()
		return err
	case sig := <-sigCh:
		logger.Info("shutting down", "signal", sig.String())
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		err := srv.Shutdown(ctx)
		mgr.Shutdown()
		return err
	}
}
