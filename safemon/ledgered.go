package safemon

import (
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
// sessions keep the zero-allocation streaming guarantee. Each session is
// one recorded session, as each stream is in the serve layer.
func WithLedger(a *ledger.Appender, backend, model string) SessionOption {
	return func(sc *sessionConfig) {
		sc.ledger = a
		sc.ledgerBackend = backend
		sc.ledgerModel = model
	}
}
