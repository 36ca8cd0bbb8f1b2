package serve

// The session pump: the one admission sequence and the one per-frame
// step that /v1/stream connections and /v1/mux sessions share (incident
// replays admit and bind through it too). A transport keeps only its
// record loop — reading records off its wire and deciding when the
// stream ends — and hands each decoded frame to step, which scores it
// through the session (a guarded one steps its policy inside Push) on the
// transport's own goroutine, records it in the ledger and writes the
// action and verdict through the transport's sink.

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

// sink receives one pumped session's server records. The NDJSON
// /v1/stream conn and each /v1/mux session implement it. Write methods
// do not return errors — a failed write means the client is
// gone, and the read side will surface that on the next record.
type sink interface {
	// verdict writes the frame's guard action edge, when a is non-nil,
	// and then its verdict, flushing once. False means the verdict has no
	// form on this wire: the sink has ended the stream with an error
	// record.
	verdict(a *ActionMsg, v *VerdictMsg) bool
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
	sess *Session               // nil until bind succeeds
	gs   safemon.GuardedSession // sess's guard; nil on unguarded streams
	rec  *ledger.Recorder
	tr   *streamTrace
	last guard.Counters // guard counters at the previous edge

	frames int
	reason string // the ledger end reason

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

// bind opens the admitted session on the backend's current model for
// labels, safemon.WithGuard on a policy stream. On failure the caller
// still owes close.
func (p *pump) bind(labels []int) *ErrorMsg {
	var opts []safemon.SessionOption
	if p.policy.Name != "" {
		opts = append(opts, safemon.WithGuard(p.policy))
	}
	sess, err := p.s.manager.Open(p.backend, labels, opts...)
	if err != nil {
		return openError(err)
	}
	p.sess = sess
	p.gs, _ = sess.sess.(safemon.GuardedSession)
	return nil
}

// open binds the admitted session, then its per-stream state: the ledger
// recorder (a nil appender makes every recorder call a no-op) and the
// stage histograms for codec. out receives the session's records. On
// failure the caller still owes close.
func (p *pump) open(labels []int, codec string, out sink) *ErrorMsg {
	if em := p.bind(labels); em != nil {
		return em
	}
	s := p.s
	p.out, p.reason = out, "error: handler exit"
	if p.gs != nil {
		s.mitigation.guardedStreams.Add(1)
	}
	// The whole stream — lifecycle, verdicts with their input frames,
	// guard edges — lands in the event log, where a latching action
	// turns it into a replayable incident.
	p.rec = ledger.NewRecorder(s.cfg.Ledger, p.backend, p.sess.Version(), p.policy.Name)
	p.rec.Start(labels)
	// Stage histograms resolve once here, so frames feed them without
	// allocating.
	p.tr = s.metrics.streamTrace(p.backend, codec, p.sess.Version(), p.policy.Name, s.cfg.Ledger != nil)
	return nil
}

// end records why the stream ended, for close's ledger end event.
func (p *pump) end(reason string) { p.reason = reason }

// close ends the session: the ledger end event, then the session's
// release. Before bind succeeded it frees the reserved slot.
func (p *pump) close() {
	if p.sess == nil {
		p.s.manager.Unreserve()
		return
	}
	p.rec.End(p.frames, p.reason)
	p.sess.Release(false)
}

// step carries one decoded frame (decNS is its record-decode time):
// session push, which steps a guarded stream's policy, then the ledger
// verdict and any action edge, then the action and verdict out through
// the sink, with every stage fed to the trace. Once the verdict is out,
// it prepares the session's next push, off the verdict path: the stream
// idles until its next frame anyway. A failed push or prepare — a
// recovered backend or guard panic included — or a verdict the sink
// cannot write ends the stream with an error record and returns false.
func (p *pump) step(ctx context.Context, f *safemon.Frame, decNS int64) bool {
	p.frame = *f
	p.tr.setStage(stageDecode, decNS)
	t0 := time.Now()
	v, err := p.sess.Push(ctx, &p.frame)
	if err != nil {
		p.end("error: push")
		p.out.fail(pushError(err))
		return false
	}
	t1 := time.Now()
	p.frames++
	p.wire = WireVerdict(v)
	p.rec.Verdict(v, &p.frame)
	// An edge goes out immediately before its verdict, so a lockstep
	// client sees the action no later than the verdict that caused it.
	var act *ActionMsg
	if p.gs != nil {
		if d := p.gs.Decision(); d.Changed {
			p.countEdge()
			p.rec.Action(d)
			p.act = actionMsg(d, p.policy.Name)
			act = &p.act
		}
	}
	// Encode covers the action and verdict writes, which the sink flushes
	// once, so an edge frame's pair lands in encode together.
	t2 := time.Now()
	if !p.out.verdict(act, &p.wire) {
		p.end("error: score has no wire form")
		return false
	}
	end := time.Now()
	p.tr.setStage(stageInfer, t1.Sub(t0).Nanoseconds())
	p.tr.setStage(stageLedger, t2.Sub(t1).Nanoseconds())
	p.tr.setStage(stageEncode, end.Sub(t2).Nanoseconds())
	p.tr.observe(p.frames-1, end.UnixNano())
	if err := p.sess.Prepare(); err != nil {
		p.end("error: prepare")
		p.out.fail(pushError(err))
		return false
	}
	return true
}

// countEdge feeds the service mitigation counters from the deltas of the
// session guard's own guard.Counters — one source of truth for
// transition classification — live, so /metrics reflects in-flight
// streams. Every counted event coincides with a level change, so the
// common unchanged frame touches no shared atomics.
func (p *pump) countEdge() {
	c, m := p.gs.GuardCounters(), &p.s.mitigation
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
