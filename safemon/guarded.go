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
	// Decision returns the guard decision for the last pushed frame;
	// before the first Push it reports no action and AlertFrame -1.
	Decision() guard.Decision
	// GuardPolicy returns the resolved policy the session runs.
	GuardPolicy() guard.Policy
	// GuardCounters returns the engine's lifetime mitigation activity.
	GuardCounters() guard.Counters
}
