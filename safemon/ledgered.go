package safemon

import (
	"repro/safemon/guard"
	"repro/safemon/ledger"
)

// WithLedger attaches a ledger appender to the session: every verdict
// (together with the input frame that produced it), every guard
// mitigation edge, and the session lifecycle are recorded as durable
// ledger events. backend and model annotate the recorded session (the
// policy name is taken from the session's guard, when one is attached);
// incidents captured this way replay through safemon/serve or an offline
// Runner.
//
// Recording adds no allocations to the warm per-frame path — emission is
// a non-blocking copy into the appender's bounded queue — so ledgered
// sessions keep the zero-allocation streaming guarantee. Each Reset
// closes the recorded session and opens a fresh one, mirroring the
// one-recorded-session-per-trajectory model of the serve layer.
func WithLedger(a *ledger.Appender, backend, model string) SessionOption {
	return func(sc *sessionConfig) {
		sc.ledger = a
		sc.ledgerBackend = backend
		sc.ledgerModel = model
	}
}

// LedgeredSession is implemented by sessions opened WithLedger.
type LedgeredSession interface {
	Session
	// LedgerSession returns the ledger session ID currently recording.
	LedgerSession() uint64
}

// wrapLedger applies the session's ledger option, if any. It runs after
// the guard wrapper so action edges are observable through the
// GuardedSession interface.
func wrapLedger(s Session, sc sessionConfig) Session {
	if sc.ledger == nil {
		return s
	}
	g, _ := s.(GuardedSession)
	ls := &ledgeredSession{
		Session: s,
		g:       g,
		app:     sc.ledger,
		backend: sc.ledgerBackend,
		model:   sc.ledgerModel,
	}
	ls.open(sc.groundTruth)
	if g != nil {
		// Keep the guard surface visible through the ledger wrapper.
		return &ledgeredGuardedSession{ls}
	}
	return ls
}

// ledgeredSession decorates a (possibly guarded) session with ledger
// recording.
type ledgeredSession struct {
	Session
	g       GuardedSession // non-nil when the inner session is guarded
	app     *ledger.Appender
	rec     *ledger.Recorder
	backend string
	model   string
	frames  int
	closed  bool
}

// open starts a fresh recorded session.
func (l *ledgeredSession) open(groundTruth []int) {
	policy := ""
	if l.g != nil {
		policy = l.g.GuardPolicy().Name
	}
	l.rec = ledger.NewRecorder(l.app, l.backend, l.model, policy)
	l.rec.Start(groundTruth)
	l.frames = 0
}

func (l *ledgeredSession) Push(f *Frame) (FrameVerdict, error) {
	v, err := l.Session.Push(f)
	if err != nil {
		return v, err
	}
	l.frames++
	l.rec.Verdict(v, f)
	if l.g != nil {
		if d := l.g.Decision(); d.Changed {
			l.rec.Action(d)
		}
	}
	return v, nil
}

func (l *ledgeredSession) Reset(groundTruth []int) error {
	if err := l.Session.Reset(groundTruth); err != nil {
		return err
	}
	l.rec.End(l.frames, "reset")
	l.open(groundTruth)
	return nil
}

func (l *ledgeredSession) Close() error {
	if !l.closed {
		l.closed = true
		l.rec.End(l.frames, "close")
	}
	return l.Session.Close()
}

func (l *ledgeredSession) LedgerSession() uint64 { return l.rec.Session() }

// ledgeredGuardedSession re-exposes the guard surface of a ledgered
// guarded session.
type ledgeredGuardedSession struct {
	*ledgeredSession
}

func (l *ledgeredGuardedSession) Decision() guard.Decision      { return l.g.Decision() }
func (l *ledgeredGuardedSession) GuardPolicy() guard.Policy     { return l.g.GuardPolicy() }
func (l *ledgeredGuardedSession) GuardCounters() guard.Counters { return l.g.GuardCounters() }
