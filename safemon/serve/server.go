package serve

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"log/slog"
	"net/http"
	"sync"
	"time"

	"repro/safemon"
	"repro/safemon/guard"
	"repro/safemon/ledger"
	"repro/safemon/obs"
)

// Config assembles a Server.
type Config struct {
	// Detectors maps backend names (as clients request them) to fitted
	// detectors, each served as version "unversioned". Build them without
	// WithTiming so served verdicts stay byte-identical to the offline
	// Runner path. Models takes precedence when both are set.
	Detectors map[string]safemon.Detector
	// Models maps backend names to versioned fitted models (typically
	// loaded from a safemon/modelstore).
	Models map[string]Model
	// Loader, when set, supplies a fresh model set on demand: POST
	// /v1/models/reload (and safemond's SIGHUP) call it and atomically
	// hot-swap the result in — new streams bind the new models while
	// in-flight streams finish on the old ones. Nil disables reload.
	Loader func(ctx context.Context) (map[string]Model, error)
	// Policies are the guard mitigation policies streams may request
	// with ?policy=NAME; action records are then interleaved into the
	// verdict stream and the guard families appear in /metrics. Every
	// policy is validated at construction. Empty disables guarded
	// streams.
	Policies []guard.Policy
	// Manager tunes the session cap, the warm pools and /v1/mux
	// backpressure.
	Manager ManagerConfig
	// StreamIdleTimeout bounds the wait for each request record: a client
	// that goes silent past it loses its stream (and session slot) instead
	// of pinning them forever. <= 0 means 2 minutes; generous next to the
	// 30 Hz kinematics rate the monitor is built for.
	StreamIdleTimeout time.Duration
	// Ledger, when set, records every stream into the durable event
	// ledger — session lifecycle, per-frame verdicts (with their input
	// frames), guard action edges, and model swaps — and enables the
	// incident endpoints (GET /v1/incidents, POST
	// /v1/incidents/{id}/replay). The appender's lifecycle belongs to
	// the caller: Server.Shutdown flushes it but does not close it. Nil
	// disables recording and the incident API.
	Ledger *ledger.Appender
	// Metrics is the registry GET /metrics renders; every service
	// counter is exported through it. Nil mints a private registry (the
	// common case). A registry must not be shared between servers: series
	// names would collide.
	Metrics *obs.Registry
	// Logger receives service log lines with keyed fields; nil discards
	// them.
	Logger *slog.Logger
}

// Server is the safemond HTTP service. Mount Handler on any http.Server
// (or httptest); call Shutdown to drain.
//
// Endpoints:
//
//	POST /v1/stream?backend=NAME[&policy=NAME]  duplex frame/verdict stream
//	     (NDJSON by default, binary via Content-Type/Accept:
//	     application/x-safemon-frames); with a policy, guard action
//	     records are interleaved
//	POST /v1/mux                  multiplexed binary connection carrying
//	     many logical sessions (open/frame/close records with a sid)
//	GET  /v1/backends             served backend names
//	GET  /v1/models               served model versions
//	POST /v1/models/reload        hot-swap to the loader's current models
//	GET  /v1/policies             configured guard mitigation policies
//	GET  /metrics                 Prometheus text exposition: frame,
//	                              session, panic and queue-full
//	                              counters, codec, guard and ledger
//	                              counters, and per-stage latency
//	                              histograms
//	GET  /v1/debug/slowframes     slowest recent frames with their stage
//	                              breakdown
//	GET  /healthz                 ok / draining (liveness)
//	GET  /readyz                  ready / draining (readiness; flips at
//	                              BeginDrain)
type Server struct {
	cfg     Config
	manager *Manager
	mux     *http.ServeMux
	start   time.Time
	metrics *serveMetrics

	// policies indexes the validated guard policies by name;
	// policyNames is the sorted /v1/policies listing.
	policies    map[string]guard.Policy
	policyNames []string
	mitigation  mitigationCounters
	codec       codecCounters

	// reloadMu serializes Reload calls (the swap itself is atomic).
	reloadMu sync.Mutex

	mu       sync.RWMutex
	draining bool
}

// NewServer builds the service over fitted detectors (or versioned
// models). It starts no goroutines: each stream is scored on the
// goroutine that serves it.
func NewServer(cfg Config) (*Server, error) {
	models := cfg.Models
	if models == nil {
		models = make(map[string]Model, len(cfg.Detectors))
		for name, det := range cfg.Detectors {
			models[name] = Model{Detector: det, Version: "unversioned"}
		}
	}
	// One registry backs the whole server: the manager registers its
	// frame, session and panic counters into it, the server everything
	// else, and GET /metrics renders it.
	if cfg.Metrics == nil {
		cfg.Metrics = obs.NewRegistry()
	}
	cfg.Manager.Metrics = cfg.Metrics
	manager, err := NewManagerModels(models, cfg.Manager)
	if err != nil {
		return nil, err
	}
	if cfg.StreamIdleTimeout <= 0 {
		cfg.StreamIdleTimeout = 2 * time.Minute
	}
	policies, policyNames, err := buildPolicies(cfg.Policies)
	if err != nil {
		manager.Close()
		return nil, err
	}
	s := &Server{
		cfg: cfg, manager: manager, start: time.Now(),
		metrics:  newServeMetrics(cfg.Metrics),
		policies: policies, policyNames: policyNames,
	}
	s.registerMetrics()
	s.mux = http.NewServeMux()
	s.mux.HandleFunc("/v1/stream", s.handleStream)
	s.mux.HandleFunc("/v1/mux", s.handleMux)
	s.mux.HandleFunc("/v1/backends", s.handleBackends)
	s.mux.HandleFunc("/v1/models", s.handleModels)
	s.mux.HandleFunc("/v1/models/reload", s.handleReload)
	s.mux.HandleFunc("/v1/policies", s.handlePolicies)
	s.mux.HandleFunc("/v1/incidents", s.handleIncidents)
	s.mux.HandleFunc("/v1/incidents/", s.handleIncident)
	s.mux.HandleFunc("/v1/debug/slowframes", s.handleSlowFrames)
	s.mux.Handle("/metrics", cfg.Metrics.Handler())
	s.mux.HandleFunc("/healthz", s.handleHealthz)
	s.mux.HandleFunc("/readyz", s.handleReadyz)
	return s, nil
}

// Models reports the model versions currently serving (the /v1/models
// payload).
func (s *Server) Models() []ModelInfo { return s.manager.Models() }

// Handler returns the service's HTTP handler.
func (s *Server) Handler() http.Handler { return s.mux }

// Policies returns the guard policies streams may request, sorted by name
// (the /v1/policies payload).
func (s *Server) Policies() []guard.Policy {
	out := make([]guard.Policy, 0, len(s.policyNames))
	for _, name := range s.policyNames {
		out = append(out, s.policies[name])
	}
	return out
}

func (s *Server) handlePolicies(w http.ResponseWriter, r *http.Request) {
	if getOnly(w, r) {
		writeJSON(w, http.StatusOK, map[string]any{"policies": s.Policies()})
	}
}

// BeginDrain flips the service into draining mode without touching
// in-flight streams: new stream requests are refused with 503 and
// /healthz reports draining, while already-attached sessions keep pushing
// frames. The graceful shutdown sequence is BeginDrain, then
// http.Server.Shutdown (which waits for the stream handlers up to the
// drain budget), then Shutdown to stop the session manager.
func (s *Server) BeginDrain() {
	s.mu.Lock()
	s.draining = true
	s.mu.Unlock()
	// Every ledger event emitted so far reaches stable storage now, so a
	// SIGTERM that never completes the full Shutdown still loses nothing.
	s.cfg.Ledger.Flush()
}

// Shutdown completes the drain: after BeginDrain (called implicitly) the
// session manager waits for in-flight pushes and stops, then the ledger
// appender is flushed and its store synced so no tail event is lost.
// Closing the appender (which seals the active segment) remains the
// owner's job — the server only borrows it. Any stream still attached —
// e.g. when the http.Server.Shutdown budget expired first — fails its
// next push with ErrDraining and terminates.
func (s *Server) Shutdown() {
	s.BeginDrain()
	s.manager.Close()
	s.cfg.Ledger.Flush()
}

// log returns the configured logger, or a discarding one.
func (s *Server) log() *slog.Logger {
	if s.cfg.Logger != nil {
		return s.cfg.Logger
	}
	return discardLogger
}

// discardLogger backs a nil Config.Logger: a handler that drops
// everything. (log/slog grows a stdlib DiscardHandler in go1.24; this
// module's language level predates it.)
var discardLogger = slog.New(discardHandler{})

type discardHandler struct{}

func (discardHandler) Enabled(context.Context, slog.Level) bool  { return false }
func (discardHandler) Handle(context.Context, slog.Record) error { return nil }
func (discardHandler) WithAttrs([]slog.Attr) slog.Handler        { return discardHandler{} }
func (discardHandler) WithGroup(string) slog.Handler             { return discardHandler{} }

func (s *Server) isDraining() bool {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return s.draining
}

func (s *Server) handleBackends(w http.ResponseWriter, r *http.Request) {
	if getOnly(w, r) {
		writeJSON(w, http.StatusOK, map[string]any{"backends": s.manager.backendNames()})
	}
}

func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	if s.isDraining() {
		http.Error(w, "draining", http.StatusServiceUnavailable)
		return
	}
	fmt.Fprintln(w, "ok")
}

// handleStream is the duplex streaming endpoint. The codec is negotiated
// per request — NDJSON by default, the binary record format when
// Content-Type or Accept names application/x-safemon-frames — and
// admission errors (unknown backend or policy, draining, session cap) are
// HTTP statuses; once the stream is admitted, errors become terminal
// records in the stream's codec so the verdict prefix already delivered
// stays valid. The loop only reads records; the pump does the rest.
func (s *Server) handleStream(w http.ResponseWriter, r *http.Request) {
	// Stream connections are one-shot: telling the client (and our own
	// http.Server) the connection won't be reused keeps error responses
	// immediate — otherwise the server blocks draining the open-ended
	// request body before it will answer at all.
	w.Header().Set("Connection", "close")
	if r.Method != http.MethodPost {
		http.Error(w, "POST only", http.StatusMethodNotAllowed)
		return
	}
	binary := wantsBinary(r)
	// Admission claims a session slot before committing the response
	// status: at the session cap the client gets a real HTTP 429, not a
	// broken stream.
	q := r.URL.Query()
	p, em := s.admit(q.Get("backend"), q.Get("policy"))
	if em != nil {
		http.Error(w, em.Message, em.Code)
		return
	}
	defer p.close()

	// HTTP/1.1 interleaves request-body reads with response writes only
	// when full duplex is enabled; HTTP/2 duplexes natively.
	rc := http.NewResponseController(w)
	if err := rc.EnableFullDuplex(); err != nil && r.ProtoMajor < 2 {
		http.Error(w, "streaming unsupported", http.StatusHTTPVersionNotSupported)
		return
	}
	if binary {
		w.Header().Set("Content-Type", BinaryContentType)
	} else {
		w.Header().Set("Content-Type", "application/x-ndjson")
	}
	w.WriteHeader(http.StatusOK)
	rc.Flush()

	// Records are read under a hard per-record size cap in both codecs:
	// the stream as a whole is unbounded, but no single record may
	// buffer without bound (the same no-unbounded-buffering contract the
	// mux session queues enforce). The idle deadline is re-armed before
	// each record so a silent client cannot pin its session slot forever.
	var conn streamConn
	codecName := "json"
	if binary {
		codecName = "binary"
		conn = newBinStream(r.Body, w, func() { rc.Flush() })
		s.codec.binaryStreams.Add(1)
	} else {
		conn = newJSONStream(r.Body, w, func() { rc.Flush() })
		s.codec.jsonStreams.Add(1)
	}
	defer conn.release()
	armIdle := func() { rc.SetReadDeadline(time.Now().Add(s.cfg.StreamIdleTimeout)) }

	// The first record may carry the stream's ground-truth labels; msg
	// holds every record after it too (conn.next's argument escapes, so
	// a per-record variable would allocate).
	var msg ClientMsg
	armIdle()
	switch err := conn.next(&msg); {
	case errors.Is(err, io.EOF):
		conn.done(0)
		return
	case err != nil:
		conn.fail(&ErrorMsg{Code: http.StatusBadRequest, Message: "bad record: " + err.Error()})
		return
	case msg.Labels != nil && msg.Frame != nil:
		conn.fail(&ErrorMsg{Code: http.StatusBadRequest,
			Message: "labels and frame in one record; send the labels header on its own line"})
		return
	}
	if em := p.open(msg.Labels, codecName, conn); em != nil {
		conn.fail(em)
		return
	}
	pending := msg.Frame != nil // the first record was already a frame
	for {
		if !pending {
			armIdle()
			switch err := conn.next(&msg); {
			case errors.Is(err, io.EOF):
				p.end("eof", true)
				conn.done(p.frames)
				return
			case err != nil:
				// Client hung up mid-record or sent garbage; either
				// way the stream is over.
				p.end("error: bad record", p.frames > 0 && errors.Is(err, io.ErrUnexpectedEOF))
				conn.fail(&ErrorMsg{Code: http.StatusBadRequest, Message: "bad record: " + err.Error()})
				return
			case msg.Labels != nil:
				// The session was bound to the first record's labels;
				// later ones would be silently ignored.
				p.end("error: late labels", false)
				conn.fail(&ErrorMsg{Code: http.StatusBadRequest,
					Message: "labels after the first record; send them once, as the stream's first record"})
				return
			}
		}
		pending = false
		if len(msg.Frame) != frameSize {
			p.end("error: bad frame", false)
			conn.fail(&ErrorMsg{Code: http.StatusBadRequest,
				Message: fmt.Sprintf("frame needs %d values, got %d", frameSize, len(msg.Frame))})
			return
		}
		if !p.step(r.Context(), (*safemon.Frame)(msg.Frame), conn.decodeNS()) {
			return
		}
	}
}

// getOnly answers 405 to any method but GET on a read-only listing and
// reports whether the handler may go on.
func getOnly(w http.ResponseWriter, r *http.Request) bool {
	if r.Method == http.MethodGet {
		return true
	}
	http.Error(w, "GET only", http.StatusMethodNotAllowed)
	return false
}

func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	enc.Encode(v)
}
