package ledger

import (
	"fmt"
	"sort"
	"strconv"
	"strings"

	"repro/internal/core"
	"repro/internal/kinematics"
)

// An incident is a session on which a latching mitigation (safe-stop or
// retract) engaged. Incidents are derived from the event log on demand —
// never stored separately — so anything the log retains can be
// re-materialized after a restart, and the log stays the single source
// of truth. The disk store pins incident sessions at append time, so
// retention cannot compact an incident's frames away.

// IncidentSummary is the listing view of one incident.
type IncidentSummary struct {
	// ID is the stable external identifier, "inc-<session>".
	ID string `json:"id"`
	// Session is the ledger session the incident was derived from.
	Session uint64 `json:"session"`
	// Backend, Model and Policy are the serving context the incident was
	// recorded under.
	Backend string `json:"backend"`
	Model   string `json:"model,omitempty"`
	Policy  string `json:"policy,omitempty"`
	// StartNS and TriggerNS are the wall-clock Unix-nanosecond times of
	// the session start and of the latching action edge.
	StartNS   int64 `json:"start_ns"`
	TriggerNS int64 `json:"trigger_ns"`
	// TriggerFrame is the frame index on which the latching action
	// engaged, TriggerAction the level it latched to.
	TriggerFrame  int    `json:"trigger_frame"`
	TriggerAction string `json:"trigger_action"`
	// Frames counts the recorded verdict frames; PeakScore is the
	// largest anomaly score the session produced.
	Frames    int     `json:"frames"`
	PeakScore float64 `json:"peak_score"`
	// Closed reports whether a session-end event was recorded (false for
	// a stream still live or cut off by a crash).
	Closed bool `json:"closed"`
}

// ActionRecord is one guard action edge inside an incident trail.
type ActionRecord struct {
	FrameIndex int     `json:"i"`
	Level      string  `json:"level"`
	AlertFrame int     `json:"alert_frame"`
	Score      float64 `json:"score"`
}

// Incident is the fully materialized incident: the recorded input
// stream plus the original verdict/action trail, ready for replay.
type Incident struct {
	IncidentSummary
	// Labels is the stream's recorded ground-truth gesture sequence (nil
	// when the client sent none).
	Labels []int32 `json:"labels,omitempty"`
	// Inputs is the recorded input stream, one kinematics frame per
	// verdict, in frame order.
	Inputs []kinematics.Frame `json:"-"`
	// Verdicts is the original per-frame verdict trail.
	Verdicts []core.FrameVerdict `json:"verdicts"`
	// Actions is the original mitigation trail (every level edge).
	Actions []ActionRecord `json:"actions"`
	// EndReason is the recorded session termination cause, empty when
	// the session never closed.
	EndReason string `json:"end_reason,omitempty"`
}

// IncidentID renders the external identifier for a session.
func IncidentID(session uint64) string { return fmt.Sprintf("inc-%d", session) }

// ParseIncidentID inverts IncidentID.
func ParseIncidentID(id string) (uint64, error) {
	rest, ok := strings.CutPrefix(id, "inc-")
	if !ok {
		return 0, fmt.Errorf("ledger: malformed incident id %q", id)
	}
	session, err := strconv.ParseUint(rest, 10, 64)
	if err != nil || session == 0 {
		return 0, fmt.Errorf("ledger: malformed incident id %q", id)
	}
	return session, nil
}

// ErrNoIncident reports that a session either is not retained or never
// latched a mitigation.
type ErrNoIncident struct{ Session uint64 }

func (e ErrNoIncident) Error() string {
	return fmt.Sprintf("ledger: no incident for session %d", e.Session)
}

// ScanIncidents derives the incident list from every retained event,
// newest first. limit > 0 caps the result.
func ScanIncidents(store Store, limit int) ([]IncidentSummary, error) {
	if store == nil {
		return nil, nil
	}
	open := map[uint64]*IncidentSummary{} // every session seen
	var order []uint64
	err := store.Scan(0, func(e *Event) bool {
		if e.Session == 0 {
			return true
		}
		s := open[e.Session]
		if s == nil {
			s = &IncidentSummary{Session: e.Session}
			open[e.Session] = s
			order = append(order, e.Session)
		}
		foldSummary(s, e)
		return true
	})
	if err != nil {
		return nil, err
	}
	out := make([]IncidentSummary, 0, len(order))
	for _, session := range order {
		s := open[session]
		if s.TriggerAction == "" {
			continue // no latching action: not an incident
		}
		s.ID = IncidentID(session)
		out = append(out, *s)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Session > out[j].Session })
	if limit > 0 && len(out) > limit {
		out = out[:limit]
	}
	return out, nil
}

// foldSummary folds one event into a session's summary.
func foldSummary(s *IncidentSummary, e *Event) {
	switch e.Kind {
	case KindSessionStart:
		s.Backend = e.Backend
		s.Model = e.Model
		s.Policy = e.Policy
		s.StartNS = e.WallNS
	case KindVerdict:
		s.Frames++
		if e.Score > s.PeakScore {
			s.PeakScore = e.Score
		}
	case KindAction:
		if e.Action.Latches() && s.TriggerAction == "" {
			s.TriggerAction = e.Action.String()
			s.TriggerFrame = int(e.FrameIndex)
			s.TriggerNS = e.WallNS
		}
	case KindSessionEnd:
		s.Closed = true
	}
}

// LoadIncident materializes the full incident for a session: the
// recorded input stream, the original verdict trail, and the original
// action trail. It returns ErrNoIncident when the session is not
// retained or never latched a mitigation.
func LoadIncident(store Store, session uint64) (*Incident, error) {
	if store == nil {
		return nil, ErrNoIncident{Session: session}
	}
	inc := &Incident{IncidentSummary: IncidentSummary{ID: IncidentID(session), Session: session}}
	err := store.Scan(0, func(e *Event) bool {
		if e.Session != session {
			return true
		}
		foldSummary(&inc.IncidentSummary, e)
		switch e.Kind {
		case KindSessionStart:
			inc.Labels = append([]int32(nil), e.Labels...)
		case KindVerdict:
			inc.Verdicts = append(inc.Verdicts, e.Verdict())
			if e.HasInput {
				inc.Inputs = append(inc.Inputs, e.Input)
			}
		case KindAction:
			inc.Actions = append(inc.Actions, ActionRecord{
				FrameIndex: int(e.FrameIndex),
				Level:      e.Action.String(),
				AlertFrame: int(e.AlertFrame),
				Score:      e.Score,
			})
		case KindSessionEnd:
			inc.EndReason = e.Note
		}
		return true
	})
	if err != nil {
		return nil, err
	}
	if inc.TriggerAction == "" {
		return nil, ErrNoIncident{Session: session}
	}
	return inc, nil
}
