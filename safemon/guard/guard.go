// Package guard closes the monitoring loop: it turns the per-frame
// FrameVerdicts a safemon detector emits into mitigation actions — Warn,
// Pause, SafeStop, Retract — under an explicit, validated Policy.
//
// The paper's core claim (Yasar & Alemzadeh, DSN 2020) is that
// context-aware monitoring detects unsafe events early enough to act
// *before* the hazard manifests. A detector alone only writes verdict
// records; this package is the part that acts. The Engine is a small
// deterministic state machine:
//
//   - evidence: a frame whose unsafe score reaches the policy threshold
//     (per-gesture overrides make the trigger context-aware) counts as one
//     frame of hazard evidence.
//   - debounce: DebounceFrames consecutive evidence frames confirm an
//     alert; isolated single-frame spikes never actuate anything.
//   - escalation: a confirmed alert engages InitialAction and climbs one
//     rung (Warn → Pause → SafeStop → Retract) every EscalateFrames further
//     evidence frames, capped at MaxAction. A score at or above PanicScore
//     jumps straight to MaxAction.
//   - hysteresis: ReleaseFrames consecutive sub-threshold frames release
//     Warn and Pause back to no action. SafeStop and Retract latch — once a
//     terminal action engages, only Reset (a new episode) clears it, the
//     way a tripped emergency stop stays tripped until a human resets it.
//
// The reaction-deadline budget (ReactionBudgetFrames) is the declared
// number of frames between first alert and hazard manifestation within
// which the policy promises to act; the mitigation campaign
// (internal/mitigation) measures actual detection-to-hazard latencies
// against it.
//
// Engine.Step is allocation-free, so a guard adds nothing to the
// zero-allocation streaming hot path (BenchmarkGuardStep is gated at 0
// allocs/op by scripts/benchguard.sh).
package guard

import (
	"fmt"

	"repro/internal/core"
)

// Action is a mitigation level, ordered by severity. The zero value is
// ActionNone (monitoring only).
type Action int

// Mitigation levels. Warn and Pause are reversible (hysteresis releases
// them); SafeStop and Retract latch until the engine is Reset.
const (
	// ActionNone takes no action; the stream is monitored only.
	ActionNone Action = iota
	// ActionWarn surfaces the alert to the operator without touching the
	// command stream.
	ActionWarn
	// ActionPause freezes the commanded motion at the pose held when the
	// action engaged.
	ActionPause
	// ActionSafeStop freezes motion and clamps the grasper to a safe hold
	// angle, the strongest in-place mitigation. Latches.
	ActionSafeStop
	// ActionRetract withdraws the manipulator toward a safe pose with the
	// grasper clamped. Latches.
	ActionRetract
)

// maxActionValue bounds the valid Action range for validation.
const maxActionValue = ActionRetract

// String returns the wire name of the action.
func (a Action) String() string {
	switch a {
	case ActionNone:
		return "none"
	case ActionWarn:
		return "warn"
	case ActionPause:
		return "pause"
	case ActionSafeStop:
		return "safe-stop"
	case ActionRetract:
		return "retract"
	default:
		return fmt.Sprintf("action(%d)", int(a))
	}
}

// Latches reports whether the action is terminal: once engaged it holds
// until the engine is Reset, regardless of later verdicts.
func (a Action) Latches() bool { return a >= ActionSafeStop }

// Stops reports whether the action interferes with the commanded motion
// (Pause or stronger). The campaign's false-stop accounting counts a
// fault-free run on which a stopping action engaged.
func (a Action) Stops() bool { return a >= ActionPause }

// Decision is the engine's output for one frame.
type Decision struct {
	// Action is the mitigation level in force after this frame.
	Action Action
	// Changed reports that Action differs from the previous frame's level
	// (an engage, escalation, or release edge — the events worth acting
	// on and the ones safemond interleaves into the verdict stream).
	Changed bool
	// Alert reports that a confirmed unsafe episode is active.
	Alert bool
	// FrameIndex echoes the verdict's frame index.
	FrameIndex int
	// AlertFrame is the frame at which the active episode's alert was
	// confirmed, -1 when no episode is active. The distance between
	// AlertFrame and the hazard manifestation is the reaction time the
	// policy's ReactionBudgetFrames budgets for.
	AlertFrame int
	// Score and Threshold record the verdict score and the effective
	// (per-gesture) threshold it was compared against.
	Score     float64
	Threshold float64
}

// Counters aggregates an engine's lifetime activity; the serve layer
// feeds its /metrics transition counters from their deltas.
type Counters struct {
	// Frames is the number of verdicts stepped through the engine.
	Frames uint64
	// Alerts counts confirmed unsafe episodes (debounce passed).
	Alerts uint64
	// Warns/Pauses/SafeStops/Retracts count upward transitions into each
	// level.
	Warns     uint64
	Pauses    uint64
	SafeStops uint64
	Retracts  uint64
	// Releases counts hysteresis releases back to no action.
	Releases uint64
}

// Add accumulates other into c (merging per-stream engines into service
// totals).
func (c *Counters) Add(other Counters) {
	c.Frames += other.Frames
	c.Alerts += other.Alerts
	c.Warns += other.Warns
	c.Pauses += other.Pauses
	c.SafeStops += other.SafeStops
	c.Retracts += other.Retracts
	c.Releases += other.Releases
}

// Actuator receives mitigation decisions. Implementations bridge the
// engine to whatever can act — a robot controller, the simulator's command
// stream (internal/mitigation), a pager. Act is called once per action
// edge (Decision.Changed), never per frame.
type Actuator interface {
	Act(d Decision) error
}

// ActuatorFunc adapts a function to the Actuator interface.
type ActuatorFunc func(d Decision) error

// Act implements Actuator.
func (f ActuatorFunc) Act(d Decision) error { return f(d) }

// Engine is the per-stream mitigation state machine. It is a
// single-goroutine object, like the safemon.Session it rides on; Step
// never allocates.
type Engine struct {
	p Policy

	unsafeRun  int
	safeRun    int
	level      Action
	alertFrame int
	counters   Counters
}

// NewEngine validates the policy and builds an engine with defaults
// applied.
func NewEngine(p Policy) (*Engine, error) {
	p = p.withDefaults()
	if err := p.Validate(); err != nil {
		return nil, err
	}
	return &Engine{p: p, alertFrame: -1}, nil
}

// MustEngine is NewEngine for statically known-good policies; it panics on
// a validation error.
func MustEngine(p Policy) *Engine {
	e, err := NewEngine(p)
	if err != nil {
		panic(err)
	}
	return e
}

// Policy returns the engine's resolved policy (defaults applied).
func (e *Engine) Policy() Policy { return e.p }

// Counters returns the engine's lifetime activity.
func (e *Engine) Counters() Counters { return e.counters }

// Action returns the mitigation level currently in force.
func (e *Engine) Action() Action { return e.level }

// Reset clears the episode state — including a latched SafeStop/Retract —
// for reuse on a new stream. Counters are lifetime and survive Reset.
func (e *Engine) Reset() {
	e.unsafeRun, e.safeRun = 0, 0
	e.level = ActionNone
	e.alertFrame = -1
}

// threshold resolves the effective threshold for a gesture context.
func (e *Engine) threshold(gesture int) float64 {
	if t, ok := e.p.GestureThresholds[gesture]; ok {
		return t
	}
	return e.p.Threshold
}

// Step advances the state machine by one verdict and returns the
// mitigation decision for that frame. It is allocation-free.
func (e *Engine) Step(v core.FrameVerdict) Decision {
	e.counters.Frames++
	th := e.threshold(v.Gesture)
	// Partial-window scores during the warmup are noise, not evidence.
	evidence := v.Score >= th && v.FrameIndex >= e.p.WarmupFrames
	prev := e.level

	if evidence {
		e.unsafeRun++
		e.safeRun = 0
	} else {
		e.safeRun++
		e.unsafeRun = 0
	}

	switch {
	case evidence && e.unsafeRun >= e.p.DebounceFrames:
		if e.level == ActionNone {
			e.alertFrame = v.FrameIndex
			e.counters.Alerts++
		}
		// Ladder position from the uninterrupted evidence run: one rung
		// per EscalateFrames beyond the debounce, capped at MaxAction.
		// EscalateFrames <= 0 disables the ladder (InitialAction only).
		next := e.p.InitialAction
		if e.p.EscalateFrames > 0 {
			rungs := (e.unsafeRun - e.p.DebounceFrames) / e.p.EscalateFrames
			next += Action(rungs)
		}
		if e.p.PanicScore > 0 && v.Score >= e.p.PanicScore {
			next = e.p.MaxAction
		}
		if next > e.p.MaxAction {
			next = e.p.MaxAction
		}
		if next > e.level {
			e.level = next
		}
	case !evidence && e.level != ActionNone && !e.level.Latches() && e.safeRun >= e.p.ReleaseFrames:
		// Hysteresis release of a non-latching action. Latched actions
		// (SafeStop, Retract) only ever strengthen; Reset clears them.
		e.level = ActionNone
		e.alertFrame = -1
		e.counters.Releases++
	}

	if e.level > prev {
		e.countTransition(e.level)
	}

	return Decision{
		Action:     e.level,
		Changed:    e.level != prev,
		Alert:      e.alertFrame >= 0,
		FrameIndex: v.FrameIndex,
		AlertFrame: e.alertFrame,
		Score:      v.Score,
		Threshold:  th,
	}
}

// countTransition records an upward transition into level.
func (e *Engine) countTransition(level Action) {
	switch level {
	case ActionWarn:
		e.counters.Warns++
	case ActionPause:
		e.counters.Pauses++
	case ActionSafeStop:
		e.counters.SafeStops++
	case ActionRetract:
		e.counters.Retracts++
	}
}
