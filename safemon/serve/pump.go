package serve

// The session pump: the one admission sequence and the one per-frame
// step that /v1/stream connections and /v1/mux sessions share. A
// transport keeps only its record loop — reading records off its wire
// and deciding when the stream ends — and hands each decoded frame to
// step, which scores it through the session on the transport's own
// goroutine, records it in the ledger, steps the guard engine and writes
// the action and verdict through the transport's sink.

import (
	"context"
	"errors"
	"fmt"
	"net/http"
	"time"

	"repro/safemon"
	"repro/safemon/guard"
	"repro/safemon/ledger"
)

// sink receives one pumped session's server records. The NDJSON and
// binary /v1/stream conns and each /v1/mux session implement it. Write
// methods do not return errors — a failed write means the client is
// gone, and the read side will surface that on the next record.
type sink interface {
	// verdict writes the frame's guard action edge, when a is non-nil,
	// and then its verdict, flushing once.
	verdict(a *ActionMsg, v *VerdictMsg)
	done(frames int)
	fail(e *ErrorMsg)
}

// pump is one admitted session. admit claims its slot, open binds the
// session and its per-stream state, step carries each frame, and close
// records the end and frees the slot.
type pump struct {
	s       *Server
	backend string
	policy  guard.Policy // zero (no name) on unguarded streams

	out  sink
	sess *Session // nil until open succeeds
	eng  *guard.Engine
	rec  *ledger.Recorder
	tr   *streamTrace
	last guard.Counters // engine counters at the previous edge

	frames  int
	healthy bool   // the session may go back to its pool
	reason  string // the ledger end reason

	// Reused across frames: frame's pointer goes through the backend
	// session's Push interface call, and wire and act go out through the
	// sink interface, so per-frame variables would escape and cost an
	// allocation each. Push returns before the next frame overwrites
	// frame.
	frame safemon.Frame
	wire  VerdictMsg
	act   ActionMsg
}

// admit runs a session's admission checks in order: the sole backend when
// the request names none, 404 for an unknown backend or policy, 503 while
// draining, then a session slot (429 at the cap, 503 once the manager
// drains). On success the pump holds the slot until close. /v1/stream
// answers the *ErrorMsg as an HTTP status, /v1/mux as a per-sid record.
func (s *Server) admit(backend, policy string) (*pump, *ErrorMsg) {
	if backend == "" {
		backend = s.manager.soleBackend()
	}
	if !s.manager.has(backend) {
		return nil, &ErrorMsg{Code: http.StatusNotFound,
			Message: fmt.Sprintf("unknown backend %q (have %v)", backend, s.manager.backendNames())}
	}
	// Guarded streams opt in per request; an unknown policy name is an
	// admission failure, like an unknown backend.
	var pol guard.Policy
	if policy != "" {
		var ok bool
		if pol, ok = s.policies[policy]; !ok {
			return nil, &ErrorMsg{Code: http.StatusNotFound,
				Message: fmt.Sprintf("unknown policy %q (have %v)", policy, s.policyNames)}
		}
	}
	if s.isDraining() {
		return nil, &ErrorMsg{Code: http.StatusServiceUnavailable, Message: "draining"}
	}
	if err := s.manager.Reserve(); err != nil {
		return nil, openError(err)
	}
	return &pump{s: s, backend: backend, policy: pol}, nil
}

// open binds the admitted session: a warm session of the backend's
// current model for labels, the guard engine, the ledger recorder (a nil
// appender makes every recorder call a no-op) and the stage histograms
// for codec. out receives the session's records. On failure the caller
// still owes close.
func (p *pump) open(labels []int, codec string, out sink) *ErrorMsg {
	s := p.s
	sess, err := s.manager.Open(p.backend, labels)
	if err != nil {
		return openError(err)
	}
	p.sess, p.out, p.healthy, p.reason = sess, out, true, "error: handler exit"
	if p.policy.Name != "" {
		if p.eng, err = guard.NewEngine(p.policy); err != nil {
			// Policies are validated at construction; reaching this is a
			// server bug, not a client error.
			p.healthy = false
			return &ErrorMsg{Code: http.StatusInternalServerError, Message: err.Error()}
		}
		s.mitigation.guardedStreams.Add(1)
	}
	// The whole stream — lifecycle, verdicts with their input frames,
	// guard edges — lands in the event log, where a latching action
	// turns it into a replayable incident.
	p.rec = ledger.NewRecorder(s.cfg.Ledger, p.backend, sess.Version(), p.policy.Name)
	p.rec.Start(labels)
	// Stage histograms resolve once here, so frames feed them without
	// allocating.
	p.tr = s.metrics.streamTrace(p.backend, codec, sess.Version(), p.policy.Name, s.cfg.Ledger != nil)
	return nil
}

// end records why the stream ended and whether its session may be
// pooled; close acts on both.
func (p *pump) end(reason string, healthy bool) { p.reason, p.healthy = reason, healthy }

// close ends the session: the ledger end event, then the session back to
// its pool (closed instead when unhealthy). Before open succeeded it
// frees the reserved slot.
func (p *pump) close() {
	if p.sess == nil {
		p.s.manager.Unreserve()
		return
	}
	p.rec.End(p.frames, p.reason)
	p.sess.Release(p.healthy)
}

// step carries one decoded frame (decNS is its record-decode time):
// session push, ledger verdict, guard step with its ledger action edge,
// then the action and verdict out through the sink, with every stage fed
// to the trace. A failed push — a recovered backend panic included —
// ends the stream with an error record and returns false, and the
// session is closed instead of pooled.
func (p *pump) step(ctx context.Context, f *safemon.Frame, decNS int64) bool {
	p.frame = *f
	p.tr.setStage(stageDecode, decNS)
	t0 := time.Now()
	v, err := p.sess.Push(ctx, &p.frame)
	if err != nil {
		p.end("error: push", false)
		p.out.fail(pushError(err))
		return false
	}
	t1 := time.Now()
	p.frames++
	p.wire = WireVerdict(v)
	p.rec.Verdict(v, &p.frame)
	t2 := time.Now()
	// Guard covers the engine step and its ledger edge; encode covers the
	// action and verdict writes, which the sink flushes once, so an edge
	// frame's pair lands in encode together.
	t3 := t2
	var act *ActionMsg
	if p.eng != nil {
		// An edge goes out immediately before its verdict, so a lockstep
		// client sees the action no later than the verdict that caused it.
		if d := p.eng.Step(v); d.Changed {
			p.countEdge()
			p.rec.Action(d)
			p.act = actionMsg(d, p.policy.Name)
			act = &p.act
		}
		t3 = time.Now()
	}
	p.out.verdict(act, &p.wire)
	end := time.Now()
	p.tr.setStage(stageInfer, t1.Sub(t0).Nanoseconds())
	p.tr.setStage(stageLedger, t2.Sub(t1).Nanoseconds())
	p.tr.setStage(stageGuard, t3.Sub(t2).Nanoseconds())
	p.tr.setStage(stageEncode, end.Sub(t3).Nanoseconds())
	p.tr.observe(p.frames-1, end.UnixNano())
	return true
}

// countEdge feeds the service mitigation counters from the deltas of the
// engine's own guard.Counters — one source of truth for transition
// classification — live, so /metrics reflects in-flight streams. Every
// counted event coincides with a level change, so the common unchanged
// frame touches no shared atomics.
func (p *pump) countEdge() {
	c, m := p.eng.Counters(), &p.s.mitigation
	m.alerts.Add(c.Alerts - p.last.Alerts)
	m.warns.Add(c.Warns - p.last.Warns)
	m.pauses.Add(c.Pauses - p.last.Pauses)
	m.safeStops.Add(c.SafeStops - p.last.SafeStops)
	m.retracts.Add(c.Retracts - p.last.Retracts)
	m.releases.Add(c.Releases - p.last.Releases)
	p.last = c
}

// actionMsg is the wire form of a guard decision on a stream running
// policy; live streams and incident replays render edges through it.
func actionMsg(d guard.Decision, policy string) ActionMsg {
	return ActionMsg{I: d.FrameIndex, Level: d.Action.String(), AlertFrame: d.AlertFrame, Score: d.Score, Policy: policy}
}

// openError maps session-admission failures onto wire records.
func openError(err error) *ErrorMsg {
	switch {
	case errors.Is(err, ErrBusy):
		return &ErrorMsg{Code: http.StatusTooManyRequests, Message: err.Error()}
	case errors.Is(err, ErrDraining):
		return &ErrorMsg{Code: http.StatusServiceUnavailable, Message: err.Error()}
	case errors.Is(err, ErrUnknownBackend):
		return &ErrorMsg{Code: http.StatusNotFound, Message: err.Error()}
	default:
		return &ErrorMsg{Code: http.StatusBadRequest, Message: err.Error()}
	}
}

// pushError maps mid-stream push failures onto wire records.
func pushError(err error) *ErrorMsg {
	switch {
	case errors.Is(err, ErrDraining):
		return &ErrorMsg{Code: http.StatusServiceUnavailable, Message: err.Error()}
	case errors.Is(err, context.Canceled), errors.Is(err, context.DeadlineExceeded):
		return &ErrorMsg{Code: 499, Message: err.Error()}
	default:
		return &ErrorMsg{Code: http.StatusInternalServerError, Message: err.Error()}
	}
}
