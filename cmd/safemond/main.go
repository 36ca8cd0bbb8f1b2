// Command safemond is the long-lived real-time monitoring service: it
// serves concurrent kinematics streams over HTTP — NDJSON by default,
// or the compact binary codec (application/x-safemon-frames, including
// multiplexed /v1/mux connections) — emitting verdicts frame by frame
// from warm pooled sessions, each scored on the goroutine that owns its
// stream, with explicit backpressure. Verdict values are identical across
// codecs.
//
// Models come from one of two places:
//
//   - artifacts (production): -model-dir serves the latest version of each
//     backend from a safemon/modelstore directory — startup is a
//     millisecond-scale artifact load, never a training run. SIGHUP (or
//     POST /v1/models/reload) atomically hot-swaps to the store's current
//     latest versions: new streams bind the new models while in-flight
//     streams finish on the old ones.
//   - training (development): without -model-dir the daemon fits the
//     requested backends on synthetic demonstrations at startup, as a
//     self-contained demo. With -train-only it fits, writes versioned
//     artifacts into -model-dir, and exits — the offline half of the
//     train → artifact → serve lifecycle.
//
// Usage:
//
//	safemond -train-only -model-dir ./models -backends all
//	safemond -addr :8080 -model-dir ./models -backends all
//	safemond -addr :8080 -backends envelope,context-aware   # fit at startup
//	safemond -addr :8080 -policies policies.json            # guarded streams
//	safemond -addr :8080 -ledger-dir ./ledger               # durable event log
//
// With -policies, the config file ({"policies":[...]}; see safemon/guard)
// is validated at startup and streams may opt into closed-loop mitigation
// with ?policy=NAME: guard action records are interleaved into the
// verdict stream and the guard counters appear in /metrics.
//
// With -ledger-dir, every stream is recorded into a crash-safe on-disk
// event ledger (safemon/ledger): session lifecycle, per-frame verdicts
// with their input frames, guard action edges, and model swaps. A stream
// on which a latching mitigation (safe-stop, retract) engaged becomes an
// incident, listable and replayable — across restarts — through the
// incident endpoints. The drain sequence flushes and seals the ledger, so
// a SIGTERM loses no recorded tail.
//
// Endpoints: POST /v1/stream?backend=NAME[&policy=NAME] (NDJSON duplex),
// GET /v1/backends, GET /v1/models, POST /v1/models/reload, GET
// /v1/policies, GET /v1/incidents, GET /v1/incidents/{id}, POST
// /v1/incidents/{id}/replay, GET /metrics (Prometheus text exposition
// of every service counter), GET /v1/debug/slowframes, GET /healthz,
// GET /readyz (503 while draining). With -ops-addr the metrics/pprof/health surfaces
// are additionally served on a separate listener, keeping scrapes and
// profiles off the traffic port. Logs go to stderr through log/slog;
// -log-format selects text or json. See the serve package docs for the
// wire protocol. SIGINT/SIGTERM drains in-flight streams before exit.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"log/slog"
	"net/http"
	"os"
	"os/signal"
	"sort"
	"strings"
	"syscall"
	"time"

	"repro/internal/dataset"
	"repro/internal/gesture"
	"repro/internal/synth"
	"repro/safemon"
	"repro/safemon/guard"
	"repro/safemon/ledger"
	"repro/safemon/modelstore"
	"repro/safemon/serve"
)

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "safemond:", err)
		os.Exit(1)
	}
}

// trainOptions collects the synthetic-training knobs shared by the
// fit-at-startup and -train-only paths.
type trainOptions struct {
	backends  []string
	threshold float64
	demos     int
	seed      int64
	epochs    int
	stride    int
	scale     float64
	log       *slog.Logger
}

// trainDetectors fits the requested backends on synthetic demonstrations
// and returns them keyed by backend name.
func trainDetectors(ctx context.Context, opts trainOptions) (map[string]safemon.Detector, error) {
	logger := opts.log
	if logger == nil {
		logger = slog.New(slog.NewTextHandler(io.Discard, nil))
	}
	logger.Info("generating suturing demonstrations", "demos", opts.demos, "seed", opts.seed)
	set, err := synth.Generate(synth.Config{
		Task: gesture.Suturing, Hz: 30, Seed: opts.seed,
		NumDemos: opts.demos, NumTrials: 4, Subjects: 4, DurationScale: opts.scale,
	})
	if err != nil {
		return nil, err
	}
	folds := dataset.LOSO(synth.Trajectories(set))
	train := folds[len(folds)-1].Train

	detectors := make(map[string]safemon.Detector, len(opts.backends))
	for _, name := range opts.backends {
		name = strings.TrimSpace(name)
		detOpts := []safemon.Option{safemon.WithThreshold(opts.threshold), safemon.WithSeed(opts.seed)}
		if opts.epochs > 0 {
			detOpts = append(detOpts, safemon.WithEpochs(opts.epochs))
		}
		if opts.stride > 0 {
			detOpts = append(detOpts, safemon.WithTrainStride(opts.stride))
		}
		det, err := safemon.Open(name, detOpts...)
		if err != nil {
			return nil, err
		}
		logger.Info("fitting backend", "backend", name, "demos", len(train))
		start := time.Now()
		if err := det.Fit(ctx, train); err != nil {
			return nil, fmt.Errorf("fit %s: %w", name, err)
		}
		logger.Info("fitted backend", "backend", name, "seconds", time.Since(start).Seconds())
		detectors[name] = det
	}
	return detectors, nil
}

// saveArtifacts writes each fitted detector into the store under version
// (empty = auto-sequential) and returns the manifests.
func saveArtifacts(store *modelstore.Store, detectors map[string]safemon.Detector, version string) ([]*modelstore.Manifest, error) {
	names := make([]string, 0, len(detectors))
	for name := range detectors {
		names = append(names, name)
	}
	sort.Strings(names) // deterministic save order for reproducible logs
	manifests := make([]*modelstore.Manifest, 0, len(names))
	for _, name := range names {
		m, err := store.Save(detectors[name], version)
		if err != nil {
			return nil, fmt.Errorf("save %s: %w", name, err)
		}
		manifests = append(manifests, m)
	}
	return manifests, nil
}

// loadModels reconstructs the latest version of each requested backend from
// the store — no Fit calls anywhere on this path. names == ["all"] loads
// every backend present in the store. prior, when non-nil, short-circuits
// backends whose latest version is unchanged: the incumbent model is reused
// as-is, so a no-op reload costs a manifest stat per backend instead of a
// full artifact re-decode (versions are immutable, making version equality
// a sufficient identity check).
func loadModels(store *modelstore.Store, names []string, prior map[string]serve.Model) (map[string]serve.Model, error) {
	if len(names) == 1 && names[0] == "all" {
		var err error
		if names, err = store.Backends(); err != nil {
			return nil, err
		}
		if len(names) == 0 {
			return nil, fmt.Errorf("model store %s is empty (run safemond -train-only first)", store.Dir())
		}
	}
	models := make(map[string]serve.Model, len(names))
	for _, name := range names {
		name = strings.TrimSpace(name)
		if prev, ok := prior[name]; ok {
			latest, err := store.Latest(name)
			if err != nil {
				return nil, fmt.Errorf("load %s: %w", name, err)
			}
			if latest.Version == prev.Version {
				models[name] = prev
				continue
			}
		}
		det, m, err := store.Load(name, "")
		if err != nil {
			return nil, fmt.Errorf("load %s: %w", name, err)
		}
		models[name] = serve.Model{Detector: det, Version: m.Version}
	}
	return models, nil
}

func run(args []string) error {
	fs := flag.NewFlagSet("safemond", flag.ContinueOnError)
	addr := fs.String("addr", ":8080", "listen address")
	opsAddr := fs.String("ops-addr", "", "separate ops listener serving /metrics, /debug/pprof, /healthz, /readyz and /v1/debug/slowframes (empty = ops surfaces on -addr only)")
	logFormat := fs.String("log-format", "text", "log output format: text or json")
	backends := fs.String("backends", "envelope,context-aware",
		"comma-separated backends to serve, or 'all' ("+strings.Join(safemon.Backends(), ", ")+")")
	modelDir := fs.String("model-dir", "", "versioned model store; serve its artifacts instead of fitting at startup (SIGHUP hot-swaps to new versions)")
	policyFile := fs.String("policies", "", "guard policy config file (JSON: {\"policies\":[...]}); streams opt in with ?policy=NAME")
	ledgerDir := fs.String("ledger-dir", "", "durable event-ledger directory; records every stream and enables the incident endpoints")
	ledgerMaxBytes := fs.Int64("ledger-max-bytes", 0, "ledger retention budget in bytes (0 = 256 MiB); incident segments are never compacted")
	ledgerMaxAge := fs.Duration("ledger-max-age", 0, "additionally compact ledger segments older than this (0 = keep until -ledger-max-bytes)")
	trainOnly := fs.Bool("train-only", false, "fit the backends, save artifacts into -model-dir, and exit")
	modelVersion := fs.String("model-version", "", "version for -train-only artifacts (empty = next sequential)")
	maxSessions := fs.Int("max-sessions", 0, "concurrent stream cap (0 = serve default)")
	enqueueTimeout := fs.Duration("enqueue-timeout", 0, "backpressure wait on a /v1/mux session's full frame queue before its 429 (0 = serve default)")
	drainTimeout := fs.Duration("drain-timeout", 30*time.Second, "graceful shutdown budget")
	threshold := fs.Float64("threshold", 0.5, "unsafe-score alert threshold (training paths)")
	demos := fs.Int("demos", 24, "synthetic training demonstrations")
	seed := fs.Int64("seed", 1, "deterministic seed")
	epochs := fs.Int("epochs", 0, "training epochs override (0 = backend default)")
	stride := fs.Int("stride", 0, "training-window stride override (0 = backend default)")
	scale := fs.Float64("scale", 0.6, "demonstration duration scale")
	if err := fs.Parse(args); err != nil {
		return err
	}

	var handler slog.Handler
	switch *logFormat {
	case "json":
		handler = slog.NewJSONHandler(os.Stderr, nil)
	case "text":
		handler = slog.NewTextHandler(os.Stderr, nil)
	default:
		return fmt.Errorf("unknown -log-format %q (want text or json)", *logFormat)
	}
	logger := slog.New(handler)

	names := safemon.Backends()
	if *backends != "all" {
		names = strings.Split(*backends, ",")
	}
	ctx := context.Background()

	// Guard policies are validated before anything trains or serves: a
	// typo in a safety policy must kill the daemon at startup, not
	// surface as a 404 under live traffic.
	var policies []guard.Policy
	if *policyFile != "" {
		data, err := os.ReadFile(*policyFile)
		if err != nil {
			return fmt.Errorf("read policies: %w", err)
		}
		policies, err = guard.ParsePolicies(data)
		if err != nil {
			return fmt.Errorf("policies %s: %w", *policyFile, err)
		}
		policyNames := make([]string, 0, len(policies))
		for _, p := range policies {
			policyNames = append(policyNames, p.Name)
		}
		logger.Info("loaded guard policies",
			"count", len(policies), "file", *policyFile, "policies", strings.Join(policyNames, ","))
	}

	// Offline training mode: fit, persist artifacts, exit.
	if *trainOnly {
		if *modelDir == "" {
			return errors.New("-train-only needs -model-dir")
		}
		store, err := modelstore.Open(*modelDir)
		if err != nil {
			return err
		}
		detectors, err := trainDetectors(ctx, trainOptions{
			backends: names, threshold: *threshold, demos: *demos,
			seed: *seed, epochs: *epochs, stride: *stride, scale: *scale,
			log: logger,
		})
		if err != nil {
			return err
		}
		manifests, err := saveArtifacts(store, detectors, *modelVersion)
		if err != nil {
			return err
		}
		for _, m := range manifests {
			logger.Info("saved artifact",
				"backend", m.Backend, "version", m.Version, "bytes", m.SizeBytes, "config", m.TrainConfigHash)
		}
		return nil
	}

	// Model acquisition: artifacts (production) or in-process fit (demo).
	var cfg serve.Config
	if *modelDir != "" {
		store, err := modelstore.Open(*modelDir)
		if err != nil {
			return err
		}
		// "all" means "everything the store has", resolved afresh on every
		// reload so newly trained backends appear without a restart. The
		// copy keeps the long-lived loader closure's input independent of
		// the logging slice reshuffled below.
		loadNames := append([]string(nil), names...)
		if *backends == "all" {
			loadNames = []string{"all"}
		}
		// lastLoaded lets reloads reuse incumbent models whose version is
		// unchanged. Reads and writes are serialized: the initial load runs
		// before serving starts, and every later call holds the server's
		// reload mutex.
		var lastLoaded map[string]serve.Model
		loader := func(context.Context) (map[string]serve.Model, error) {
			models, err := loadModels(store, loadNames, lastLoaded)
			if err != nil {
				return nil, err
			}
			// A backend the store no longer lists (its directory was
			// removed, or its manifests went corrupt on disk) keeps its
			// healthy incumbent model: a safety monitor must not drop a
			// serving backend because the *next* version failed to
			// appear. Removal requires a restart.
			for name, prev := range lastLoaded {
				if _, ok := models[name]; !ok {
					logger.Warn("store no longer lists backend; keeping incumbent model",
						"backend", name, "version", prev.Version)
					models[name] = prev
				}
			}
			lastLoaded = models
			return models, nil
		}
		start := time.Now()
		models, err := loader(ctx)
		if err != nil {
			return err
		}
		names = make([]string, 0, len(models))
		for name, m := range models {
			logger.Info("loaded model", "backend", name, "version", m.Version, "dir", *modelDir)
			names = append(names, name)
		}
		sort.Strings(names)
		logger.Info("cold start from artifacts (no training)",
			"elapsed", time.Since(start).Round(time.Millisecond).String())
		cfg.Models = models
		cfg.Loader = loader
	} else {
		detectors, err := trainDetectors(ctx, trainOptions{
			backends: names, threshold: *threshold, demos: *demos,
			seed: *seed, epochs: *epochs, stride: *stride, scale: *scale,
			log: logger,
		})
		if err != nil {
			return err
		}
		cfg.Detectors = detectors
	}

	// The event ledger opens (and crash-recovers) before serving starts:
	// a torn tail from a previous crash is truncated now, and sessions
	// pinned by captured incidents survive compaction. The daemon owns
	// the appender — the server only borrows it — so it closes (sealing
	// the active segment) after the drain completes.
	var app *ledger.Appender
	if *ledgerDir != "" {
		store, err := ledger.OpenDisk(*ledgerDir, ledger.DiskConfig{
			MaxBytes: *ledgerMaxBytes,
			MaxAge:   *ledgerMaxAge,
		})
		if err != nil {
			return fmt.Errorf("open ledger: %w", err)
		}
		if n := store.RecoveredBytes(); n > 0 {
			logger.Warn("ledger recovery truncated torn tail", "bytes", n)
		}
		segs, active := store.Segments()
		logger.Info("ledger opened",
			"dir", *ledgerDir, "bytes", store.SizeBytes(), "segments", segs, "active", active)
		app = ledger.NewAppender(store, ledger.Options{})
		cfg.Ledger = app
	}

	cfg.Policies = policies
	cfg.Manager = serve.ManagerConfig{
		MaxSessions:    *maxSessions,
		EnqueueTimeout: *enqueueTimeout,
	}
	cfg.Logger = logger
	srv, err := serve.NewServer(cfg)
	if err != nil {
		return err
	}
	// Streams manage their own idle deadline (StreamIdleTimeout), so no
	// global read timeout — just header and keep-alive idle bounds.
	hs := &http.Server{
		Addr:              *addr,
		Handler:           srv.Handler(),
		ReadHeaderTimeout: 10 * time.Second,
		IdleTimeout:       2 * time.Minute,
	}

	// The ops listener keeps scrapes, pprof, and readiness probes off the
	// traffic port: a stream stampede cannot starve the scraper, and the
	// ops port can stay cluster-internal while -addr faces clients.
	var ops *http.Server
	if *opsAddr != "" {
		ops = &http.Server{
			Addr:              *opsAddr,
			Handler:           srv.OpsHandler(),
			ReadHeaderTimeout: 10 * time.Second,
			IdleTimeout:       2 * time.Minute,
		}
		go func() {
			logger.Info("ops listener", "addr", *opsAddr)
			if err := ops.ListenAndServe(); err != nil && !errors.Is(err, http.ErrServerClosed) {
				logger.Error("ops listener failed", "err", err)
			}
		}()
	}

	errc := make(chan error, 1)
	go func() {
		logger.Info("serving", "backends", strings.Join(names, ","), "addr", *addr)
		errc <- hs.ListenAndServe()
	}()

	sigc := make(chan os.Signal, 1)
	signal.Notify(sigc, syscall.SIGINT, syscall.SIGTERM, syscall.SIGHUP)
loop:
	for {
		select {
		case err := <-errc:
			return err
		case sig := <-sigc:
			if sig == syscall.SIGHUP {
				// Hot-swap to the store's current latest versions without
				// touching in-flight streams.
				models, err := srv.Reload(ctx)
				if err != nil {
					logger.Error("reload failed", "err", err)
					continue
				}
				for _, m := range models {
					logger.Info("reloaded model", "backend", m.Backend, "version", m.Version)
				}
				continue
			}
			logger.Info("draining", "signal", sig.String(), "budget", drainTimeout.String())
			break loop
		}
	}

	// Drain in three steps: refuse new streams (503 / draining healthz)
	// while in-flight ones keep running, wait for them up to the budget,
	// then stop the session manager (terminating any stragglers).
	srv.BeginDrain()
	shutdownCtx, cancel := context.WithTimeout(context.Background(), *drainTimeout)
	defer cancel()
	err = hs.Shutdown(shutdownCtx)
	srv.Shutdown()
	if ops != nil {
		// The ops listener outlives the traffic drain so /readyz reports
		// "draining" and the final metrics stay scrapeable until the end.
		opsCtx, opsCancel := context.WithTimeout(context.Background(), 2*time.Second)
		ops.Shutdown(opsCtx)
		opsCancel()
	}
	if app != nil {
		// The server flushed during Shutdown; Close drains any stragglers,
		// fsyncs, and seals the active segment.
		if cerr := app.Close(); cerr != nil {
			logger.Error("ledger close", "err", cerr)
		}
	}
	if err != nil && !errors.Is(err, context.DeadlineExceeded) {
		return err
	}
	logger.Info("drained")
	return nil
}
