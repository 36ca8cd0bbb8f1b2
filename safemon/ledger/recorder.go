package ledger

import (
	"time"

	"repro/internal/core"
	"repro/internal/kinematics"
	"repro/safemon/guard"
)

// Recorder is the per-session emission handle: it carries the session ID
// and serving context (backend, model version, policy) so the hot path
// emits events with one stack-allocated Event and no string formatting.
// A nil *Recorder is a valid no-op recorder — ledger-less call sites pay
// a nil check per frame and nothing else.
type Recorder struct {
	app     *Appender
	session uint64
	backend string
	model   string
	policy  string
}

// NewRecorder opens a recorder for one session, allocating a fresh
// session ID. Returns nil when a is nil.
func NewRecorder(a *Appender, backend, model, policy string) *Recorder {
	if a == nil {
		return nil
	}
	return &Recorder{
		app:     a,
		session: a.NextSession(),
		backend: backend,
		model:   model,
		policy:  policy,
	}
}

// Session returns the recorder's session ID (0 for a nil recorder).
func (r *Recorder) Session() uint64 {
	if r == nil {
		return 0
	}
	return r.session
}

// event seeds an Event with the recorder's session context.
func (r *Recorder) event(kind Kind) Event {
	return Event{
		Kind:    kind,
		Session: r.session,
		WallNS:  time.Now().UnixNano(),
		Backend: r.backend,
		Model:   r.model,
		Policy:  r.policy,
	}
}

// Start emits the session-start event. labels is the stream's
// ground-truth gesture sequence (nil when the client sent none), copied
// into the event's compact int32 form.
func (r *Recorder) Start(labels []int) {
	if r == nil {
		return
	}
	e := r.event(KindSessionStart)
	if len(labels) > 0 {
		e.Labels = make([]int32, len(labels))
		for i, l := range labels {
			e.Labels[i] = int32(l)
		}
	}
	r.app.Emit(&e)
}

// Verdict emits one frame verdict together with the input frame that
// produced it — the hot-path call, allocation-free.
func (r *Recorder) Verdict(v core.FrameVerdict, input *kinematics.Frame) {
	if r == nil {
		return
	}
	e := r.event(KindVerdict)
	e.FrameIndex = int32(v.FrameIndex)
	e.Gesture = int32(v.Gesture)
	e.Score = v.Score
	e.Unsafe = v.Unsafe
	if input != nil {
		e.HasInput = true
		e.Input = *input
	}
	r.app.Emit(&e)
}

// Action emits one guard mitigation edge (call only when the decision
// changed the level) — also on the hot path, allocation-free.
func (r *Recorder) Action(d guard.Decision) {
	if r == nil {
		return
	}
	e := r.event(KindAction)
	e.FrameIndex = int32(d.FrameIndex)
	e.Score = d.Score
	e.Action = d.Action
	e.AlertFrame = int32(d.AlertFrame)
	r.app.Emit(&e)
}

// End emits the session-end event; frames is the number of frames pushed
// and reason the termination cause ("eof", "error: ...").
func (r *Recorder) End(frames int, reason string) {
	if r == nil {
		return
	}
	e := r.event(KindSessionEnd)
	e.FrameIndex = int32(frames)
	e.Note = reason
	r.app.Emit(&e)
}

// ModelSwap emits a session-independent model-swap event on a: backend
// now serves version, replacing prev.
func ModelSwap(a *Appender, backend, version, prev string) {
	if a == nil {
		return
	}
	e := Event{
		Kind:    KindModelSwap,
		WallNS:  time.Now().UnixNano(),
		Backend: backend,
		Model:   version,
		Note:    prev,
	}
	a.Emit(&e)
}
