package serve

// Per-stage frame instrumentation and the /metrics surface. Every
// service counter is exported through one obs.Registry — either the
// registry owns the instrument (the latency and stage histograms) or
// the /metrics series is a read-function over the server's own atomics
// (everything else).
//
// The per-frame pipeline decomposes into attributable stages:
//
//	decode  parse of the request record (excluding network wait)
//	queue   submit → shard mailbox dequeue
//	infer   dequeue → verdict (the model forward)
//	guard   mitigation policy engine step and its ledger action edge
//	        (guarded streams only)
//	ledger  event-ledger verdict emit (ledgered servers only)
//	encode  action and verdict record writes plus one flush
//
// Each admitted stream registers its stage histograms once (a map
// lookup after the first stream of a backend+codec) and then feeds them
// with plain atomic adds; a frame's stage breakdown is also offered to
// the slow-frame exemplar ring, whose fast-reject path is one atomic
// compare. The warm path allocates nothing.

import (
	"fmt"
	"net/http"
	"net/http/pprof"
	"sync/atomic"
	"time"

	"repro/safemon/obs"
)

// Stage indices of the per-frame trace.
const (
	stageDecode = iota
	stageQueue
	stageInfer
	stageGuard
	stageLedger
	stageEncode
	numStages
)

// stageNames are the stage label values of safemon_frame_stage_seconds,
// in pipeline order.
var stageNames = [numStages]string{
	"decode", "queue", "infer", "guard", "ledger", "encode",
}

// slowStageNames names the slow-frame ring's stage slots (the trace's
// stages, unused tail empty). Shared by every exemplar.
var slowStageNames = func() [obs.SlowStages]string {
	var out [obs.SlowStages]string
	copy(out[:], stageNames[:])
	return out
}()

const stageHelp = "Per-frame stage latency by backend, codec and pipeline stage."

// serveMetrics is the server's telemetry hub: the registry every
// service counter is exported through, plus the slow-frame exemplar
// ring behind GET /v1/debug/slowframes.
type serveMetrics struct {
	reg  *obs.Registry
	slow *obs.SlowRing
	sid  atomic.Uint64 // stream ordinals for slow-frame context
}

// slowRingSize and slowRingTTL shape the slow-frame exemplar ring: the
// N slowest frames of the last TTL are kept.
const (
	slowRingSize = 32
	slowRingTTL  = 10 * time.Minute
)

func newServeMetrics(reg *obs.Registry) *serveMetrics {
	return &serveMetrics{reg: reg, slow: obs.NewSlowRing(slowRingSize, slowRingTTL)}
}

// streamTrace is one admitted stream's instrumentation bundle: the
// resolved stage histograms (nil where the stage cannot occur on this
// stream), the per-frame duration scratch, and the slow-ring context.
// It is allocated once at admission; per frame it is written and
// flushed without allocating.
type streamTrace struct {
	hists   [numStages]*obs.Histogram
	scratch [obs.SlowStages]int64
	meta    *obs.SlowMeta
	slow    *obs.SlowRing
}

// streamTrace resolves the stage histograms for one admitted stream.
// Guard only exists on policy streams and ledger on ledgered servers;
// their histograms stay nil otherwise so inactive stages record nothing.
func (m *serveMetrics) streamTrace(backend, codec, version, policyName string, ledgered bool) *streamTrace {
	tr := &streamTrace{
		slow: m.slow,
		meta: &obs.SlowMeta{
			Session: m.sid.Add(1),
			Backend: backend, Codec: codec, Model: version, Policy: policyName,
			Stages: &slowStageNames,
		},
	}
	for i := 0; i < numStages; i++ {
		switch i {
		case stageGuard:
			if policyName == "" {
				continue
			}
		case stageLedger:
			if !ledgered {
				continue
			}
		}
		tr.hists[i] = m.reg.Histogram("safemon_frame_stage_seconds", stageHelp,
			obs.Label{Key: "backend", Value: backend},
			obs.Label{Key: "codec", Value: codec},
			obs.Label{Key: "stage", Value: stageNames[i]})
	}
	return tr
}

// setStage records one stage's duration for the current frame.
func (tr *streamTrace) setStage(stage int, ns int64) { tr.scratch[stage] = ns }

// observe flushes the current frame: every active stage lands in its
// histogram, and the frame is offered to the slow-frame ring. endNS is
// the frame's completion wall clock (UnixNano); frame its stream index.
func (tr *streamTrace) observe(frame int, endNS int64) {
	var total int64
	for i := 0; i < numStages; i++ {
		ns := tr.scratch[i]
		total += ns
		if h := tr.hists[i]; h != nil {
			h.ObserveNS(ns)
		}
	}
	tr.slow.Offer(total, endNS, int64(frame), &tr.scratch, tr.meta)
}

// codecCounters tracks which wire codecs the service's streams have
// negotiated. Stream handlers increment at admission; /metrics reads
// concurrently.
type codecCounters struct {
	jsonStreams   atomic.Uint64 // NDJSON /v1/stream connections admitted
	binaryStreams atomic.Uint64 // binary /v1/stream connections admitted
	muxConns      atomic.Uint64 // /v1/mux connections admitted
	muxSessions   atomic.Uint64 // logical sessions opened over mux conns
}

// registerMetrics exports every server-level counter through the
// registry (the per-shard counters were registered by the manager).
func (s *Server) registerMetrics() {
	reg := s.metrics.reg
	reg.GaugeFunc("safemon_uptime_seconds",
		"Seconds since the server started.",
		func() float64 { return time.Since(s.start).Seconds() })
	reg.CounterFunc("safemon_streams_total",
		"Single-session /v1/stream connections admitted, by codec.",
		s.codec.jsonStreams.Load, obs.Label{Key: "codec", Value: "json"})
	reg.CounterFunc("safemon_streams_total",
		"Single-session /v1/stream connections admitted, by codec.",
		s.codec.binaryStreams.Load, obs.Label{Key: "codec", Value: "binary"})
	reg.CounterFunc("safemon_mux_connections_total",
		"Multiplexed /v1/mux connections admitted.", s.codec.muxConns.Load)
	reg.CounterFunc("safemon_mux_sessions_total",
		"Logical sessions opened over mux connections.", s.codec.muxSessions.Load)
	reg.CounterFunc("safemon_guarded_streams_total",
		"Streams opened with a mitigation policy.", s.mitigation.guardedStreams.Load)
	for _, gc := range []struct {
		action string
		fn     func() uint64
	}{
		{"alert", s.mitigation.alerts.Load},
		{"warn", s.mitigation.warns.Load},
		{"pause", s.mitigation.pauses.Load},
		{"safe_stop", s.mitigation.safeStops.Load},
		{"retract", s.mitigation.retracts.Load},
		{"release", s.mitigation.releases.Load},
	} {
		reg.CounterFunc("safemon_guard_transitions_total",
			"Guard mitigation transitions, by action edge.",
			gc.fn, obs.Label{Key: "action", Value: gc.action})
	}
	reg.CounterFunc("safemon_slow_frames_total",
		"Frames admitted to the slow-frame exemplar ring.", s.metrics.slow.Admitted)
	reg.GaugeCollector("safemon_model_loaded_seconds",
		"Unix time each served model version was loaded.",
		func(emit obs.Emit) {
			for _, mi := range s.manager.Models() {
				emit(float64(mi.LoadedAt.Unix()),
					obs.Label{Key: "backend", Value: mi.Backend},
					obs.Label{Key: "version", Value: mi.Version})
			}
		})
	if app := s.cfg.Ledger; app != nil {
		reg.GaugeFunc("safemon_ledger_queue_depth",
			"Event-ledger emit-queue depth.",
			func() float64 { return float64(app.Stats().Queue) })
		reg.GaugeFunc("safemon_ledger_queue_capacity",
			"Event-ledger emit-queue bound.",
			func() float64 { return float64(app.Stats().QueueCap) })
		reg.CounterFunc("safemon_ledger_appended_total",
			"Events durably handed to the ledger store.",
			func() uint64 { return app.Stats().Appended })
		reg.CounterFunc("safemon_ledger_batches_total",
			"Store Append calls that carried ledger events.",
			func() uint64 { return app.Stats().Batches })
		reg.CounterFunc("safemon_ledger_dropped_total",
			"Ledger events lost to a full queue or unencodable payload.",
			func() uint64 { return app.Stats().Dropped })
		reg.CounterFunc("safemon_ledger_errors_total",
			"Ledger store Append failures.",
			func() uint64 { return app.Stats().Errors })
		reg.GaugeFunc("safemon_ledger_bytes",
			"Ledger store footprint in bytes.",
			func() float64 { return float64(app.Stats().Bytes) })
		reg.GaugeFunc("safemon_ledger_segments",
			"Ledger store segment count.",
			func() float64 { return float64(app.Stats().Segments) })
		reg.CounterFunc("safemon_ledger_last_seq_total",
			"Highest ledger sequence number assigned.",
			func() uint64 { return app.Stats().LastSeq })
	}
}

// Metrics returns the registry behind GET /metrics, so embedders can
// mount it themselves or register additional series.
func (s *Server) Metrics() *obs.Registry { return s.metrics.reg }

// handleReadyz is the readiness probe: 200 while accepting new streams,
// 503 once BeginDrain has run — load balancers stop routing while
// in-flight streams finish. /healthz (liveness) behaves identically
// today but is a distinct endpoint so the two probes can diverge.
func (s *Server) handleReadyz(w http.ResponseWriter, r *http.Request) {
	if s.isDraining() {
		http.Error(w, "draining", http.StatusServiceUnavailable)
		return
	}
	fmt.Fprintln(w, "ready")
}

// SlowFrameInfo is one row of GET /v1/debug/slowframes: a recent slow
// frame with its full stage breakdown and stream context, slowest
// first.
type SlowFrameInfo struct {
	// TotalMS is the frame's summed stage time in milliseconds.
	TotalMS float64 `json:"total_ms"`
	// When is the frame's completion time.
	When time.Time `json:"when"`
	// Frame is the frame's index within its stream; Session the
	// server-assigned stream ordinal.
	Frame   int64  `json:"frame"`
	Session uint64 `json:"session"`
	// Backend, Codec, Model and Policy identify what served the frame.
	Backend string `json:"backend"`
	Codec   string `json:"codec"`
	Model   string `json:"model"`
	Policy  string `json:"policy,omitempty"`
	// StageMS are the per-stage durations in milliseconds, keyed by
	// stage name.
	StageMS map[string]float64 `json:"stage_ms"`
}

// SlowFrames snapshots the slow-frame exemplar ring, slowest first (the
// /v1/debug/slowframes payload).
func (s *Server) SlowFrames() []SlowFrameInfo {
	snap := s.metrics.slow.Snapshot()
	out := make([]SlowFrameInfo, 0, len(snap))
	for _, f := range snap {
		info := SlowFrameInfo{
			TotalMS: float64(f.TotalNS) / 1e6,
			When:    time.Unix(0, f.WhenNS).UTC(),
			Frame:   f.Frame,
			Session: f.Meta.Session,
			Backend: f.Meta.Backend,
			Codec:   f.Meta.Codec,
			Model:   f.Meta.Model,
			Policy:  f.Meta.Policy,
			StageMS: make(map[string]float64, numStages),
		}
		if f.Meta.Stages != nil {
			for i, name := range f.Meta.Stages {
				if name != "" {
					info.StageMS[name] = float64(f.StageNS[i]) / 1e6
				}
			}
		}
		out = append(out, info)
	}
	return out
}

func (s *Server) handleSlowFrames(w http.ResponseWriter, r *http.Request) {
	if getOnly(w, r) {
		writeJSON(w, http.StatusOK, map[string]any{"slow_frames": s.SlowFrames()})
	}
}

// OpsHandler returns the operational handler safemond serves on its
// -ops-addr listener, separate from the traffic port: /metrics, the
// health/readiness probes, the slow-frame exemplars, and net/http/pprof
// under /debug/pprof/.
func (s *Server) OpsHandler() http.Handler {
	mux := http.NewServeMux()
	mux.Handle("/metrics", s.metrics.reg.Handler())
	mux.HandleFunc("/healthz", s.handleHealthz)
	mux.HandleFunc("/readyz", s.handleReadyz)
	mux.HandleFunc("/v1/debug/slowframes", s.handleSlowFrames)
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	return mux
}
