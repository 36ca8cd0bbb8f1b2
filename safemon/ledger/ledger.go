// Package ledger is the durable verdict/action event log of the safemon
// monitoring system: an append-only record of everything the monitor saw
// and did, so that a near-miss in production leaves a trace that can be
// diagnosed, replayed, and turned into a regression fixture instead of
// dying with the NDJSON stream that carried it.
//
// The pieces:
//
//   - Event: one append-only log entry — a frame verdict (carrying the
//     input kinematics frame so the stream can be replayed), a guard
//     mitigation action edge, a session lifecycle mark, or a model swap.
//     Every event carries a monotonic sequence number, its session ID,
//     the backend / model version / policy it was produced under, and
//     wall-clock plus frame-index timestamps.
//   - Store: the persistence interface, implemented by DiskStore
//     (length-prefixed binary records with a per-record CRC-32 in
//     fsynced, size-rotated segment files, with retention/compaction by
//     age and bytes and crash-safe recovery that truncates a torn tail
//     instead of refusing to open). Tests substitute fakes through it.
//   - Appender: the group-committing writer between the zero-allocation
//     streaming hot path and the store. Emit enqueues one event without
//     blocking and without allocating; a bounded queue plus explicit drop
//     counters means a slow disk degrades the ledger, never the monitor.
//     The writer appends what is queued every Options.FlushEvery (10 ms
//     by default), never once per event, so emitting a verdict does not
//     wake it; Flush and Close write everything queued and fsync. Recorder is the per-session emission
//     handle.
//   - Incidents: ScanIncidents / LoadIncident materialize an incident —
//     the full recorded input stream of a session on which a latching
//     mitigation (safe-stop, retract) engaged — ready for time-travel
//     replay through any backend and policy (safemon/serve exposes this
//     as GET /v1/incidents and POST /v1/incidents/{id}/replay).
//
// The event log is the source of truth: incidents are derived from it on
// demand rather than stored separately, so anything the log retains can
// be re-materialized after a restart, and compaction is incident-aware
// (a segment backing an incident session is pinned until unpinned).
package ledger

import (
	"repro/internal/core"
	"repro/internal/kinematics"
	"repro/safemon/guard"
)

// Kind discriminates event records. The zero value is invalid so that a
// decoded all-zero record can never masquerade as a real event.
type Kind uint8

// Event kinds.
const (
	// KindSessionStart opens a session: backend, model version, policy,
	// and the stream's ground-truth labels when the client supplied them
	// (required to replay ground-truth-context backends faithfully).
	KindSessionStart Kind = 1
	// KindVerdict is one frame verdict together with the input frame that
	// produced it — the replayable unit of the ledger.
	KindVerdict Kind = 2
	// KindAction is one guard mitigation edge (the engine's level
	// changed on this frame).
	KindAction Kind = 3
	// KindSessionEnd closes a session; FrameIndex carries the number of
	// frames pushed and Note the termination reason ("eof", "error: ...").
	KindSessionEnd Kind = 4
	// KindModelSwap records a hot-swap: Model is the version now serving
	// Backend, Note the version it replaced.
	KindModelSwap Kind = 5
)

// String returns the wire name of the kind.
func (k Kind) String() string {
	switch k {
	case KindSessionStart:
		return "session-start"
	case KindVerdict:
		return "verdict"
	case KindAction:
		return "action"
	case KindSessionEnd:
		return "session-end"
	case KindModelSwap:
		return "model-swap"
	default:
		return "invalid"
	}
}

// valid reports whether k is a known kind.
func (k Kind) valid() bool { return k >= KindSessionStart && k <= KindModelSwap }

// Event is one append-only ledger entry. It is a plain value — the hot
// path builds one on the stack and Emit copies it into the queue, so no
// field may require heap allocation on the verdict/action paths (Labels
// is only populated by the off-hot-path session-start event).
type Event struct {
	// Seq is the store-wide monotonic sequence number, assigned by the
	// appender's writer goroutine at dequeue time.
	Seq uint64
	// Kind discriminates the record.
	Kind Kind
	// Session identifies the stream this event belongs to (0 for
	// session-independent events such as model swaps).
	Session uint64
	// WallNS is the wall-clock timestamp in Unix nanoseconds.
	WallNS int64

	// Backend, Model and Policy are the serving context the event was
	// produced under (model version and policy may be empty).
	Backend string
	Model   string
	Policy  string
	// Note carries kind-specific metadata: the session-end reason, or the
	// replaced version of a model swap.
	Note string

	// FrameIndex is the in-stream frame timestamp (the frames-pushed
	// count for session-end events).
	FrameIndex int32
	// Gesture and Score echo the verdict (KindVerdict) or the score that
	// produced the action edge (KindAction).
	Gesture int32
	Score   float64
	// Unsafe echoes the verdict's alert bit.
	Unsafe bool

	// Action is the mitigation level now in force (KindAction).
	Action guard.Action
	// AlertFrame is the active episode's confirmed-alert frame, -1 on a
	// release edge (KindAction).
	AlertFrame int32

	// HasInput marks Input as meaningful (KindVerdict records the frame
	// that produced the verdict so incidents can be replayed).
	HasInput bool
	// Input is the 38-variable kinematics frame behind a verdict.
	Input kinematics.Frame

	// Labels is the stream's ground-truth gesture sequence
	// (KindSessionStart only; nil when the client sent none).
	Labels []int32
}

// Verdict reconstructs the frame verdict a KindVerdict event recorded.
func (e *Event) Verdict() core.FrameVerdict {
	return core.FrameVerdict{
		FrameIndex: int(e.FrameIndex),
		Gesture:    int(e.Gesture),
		Score:      e.Score,
		Unsafe:     e.Unsafe,
	}
}

// Store is the persistence behind an Appender. Implementations must
// support concurrent Scan while a single writer Appends.
type Store interface {
	// Append durably accepts a batch of events whose Seq fields have
	// already been assigned (strictly increasing across calls).
	Append(events []Event) error
	// Scan calls fn for every retained event with Seq >= from, in
	// sequence order, until fn returns false or the log is exhausted.
	// The *Event is only valid for the duration of the call.
	Scan(from uint64, fn func(*Event) bool) error
	// Bounds reports the first and last retained sequence numbers
	// (0, 0 when the store is empty).
	Bounds() (first, last uint64)
	// MaxSession reports the largest session ID the store has seen, so
	// session IDs stay unique across restarts.
	MaxSession() uint64
	// SizeBytes reports the store's current footprint.
	SizeBytes() int64
	// Sync flushes buffered state to stable storage.
	Sync() error
	// Close syncs and releases the store.
	Close() error
	// Pin marks a session's events as exempt from compaction — the
	// incident-retention hook. Append pins the session of every latching
	// action event it accepts.
	Pin(session uint64)
	// Unpin lifts the exemption.
	Unpin(session uint64)
	// Pinned lists the currently pinned sessions.
	Pinned() []uint64
}
