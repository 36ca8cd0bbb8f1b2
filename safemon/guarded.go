package safemon

import (
	"repro/safemon/guard"
)

// WithGuard attaches a mitigation policy engine to the session: every
// verdict the session produces is also stepped through a guard.Engine
// running the given policy, and the resulting mitigation decision is
// available through the GuardedSession interface. The policy is validated
// when the session opens.
//
// The guard adds no allocations to the warm per-frame path, so guarded
// sessions keep the zero-allocation streaming guarantee.
func WithGuard(p guard.Policy) SessionOption {
	return func(sc *sessionConfig) { sc.guardPolicy = &p }
}

// GuardedSession is implemented by sessions opened WithGuard. Decision
// reports the mitigation state after the most recent Push — the closed
// loop reads it each frame to decide whether (and how hard) to intervene
// in the command stream.
type GuardedSession interface {
	Session
	// Decision returns the guard decision for the last pushed frame.
	Decision() guard.Decision
	// GuardPolicy returns the resolved policy the session runs.
	GuardPolicy() guard.Policy
	// GuardCounters returns the engine's lifetime mitigation activity.
	GuardCounters() guard.Counters
}

// guardedSession decorates any backend session with a policy engine.
type guardedSession struct {
	Session
	eng  *guard.Engine
	last guard.Decision
}

// wrapGuard applies the session's guard and ledger options, if any.
// Backends call it on their NewSession return value; on a policy
// validation error the inner session is closed. The ledger wrapper goes
// outside the guard wrapper so recorded action edges reflect the guard's
// per-frame decisions.
func wrapGuard(s Session, sc sessionConfig) (Session, error) {
	if sc.guardPolicy != nil {
		eng, err := guard.NewEngine(*sc.guardPolicy)
		if err != nil {
			s.Close()
			return nil, err
		}
		s = &guardedSession{Session: s, eng: eng}
	}
	return wrapLedger(s, sc), nil
}

func (g *guardedSession) Push(f *Frame) (FrameVerdict, error) {
	v, err := g.Session.Push(f)
	if err != nil {
		return v, err
	}
	g.last = g.eng.Step(v)
	return v, nil
}

func (g *guardedSession) Reset(groundTruth []int) error {
	if err := g.Session.Reset(groundTruth); err != nil {
		return err
	}
	g.eng.Reset()
	g.last = guard.Decision{AlertFrame: -1}
	return nil
}

func (g *guardedSession) Decision() guard.Decision      { return g.last }
func (g *guardedSession) GuardPolicy() guard.Policy     { return g.eng.Policy() }
func (g *guardedSession) GuardCounters() guard.Counters { return g.eng.Counters() }
