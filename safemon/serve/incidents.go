package serve

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"strconv"
	"strings"

	"repro/safemon/ledger"
)

// Incident API, backed by the event ledger:
//
//	GET    /v1/incidents                    list captured incidents
//	GET    /v1/incidents/{id}               one incident's recorded trail
//	POST   /v1/incidents/{id}/replay        time-travel replay: re-run the
//	       [?backend=NAME][&policy=NAME]    recorded input stream through
//	                                        any served backend and policy
//	DELETE /v1/incidents/{id}               acknowledge: unpin the
//	                                        incident's segments so
//	                                        retention may reclaim them
//
// An incident is a recorded session on which a latching mitigation
// (safe-stop, retract) engaged; it is derived from the ledger on demand,
// so everything the log retains is replayable — including across
// restarts. Replay defaults to the incident's original backend and
// policy, where it must reproduce the original verdict/action trail
// byte-identically (the replay-fidelity golden test); naming a different
// backend or policy answers "what would the other monitor have done?".
//
// An incident pins the disk segments holding its session until it is
// acknowledged via DELETE, so the retention budget (-ledger-max-bytes)
// can only bound disk usage on a deployment that acknowledges its
// incidents once diagnosed.

// ErrNoLedger reports an incident request on a server constructed
// without a ledger.
var ErrNoLedger = errors.New("serve: no ledger configured")

// IncidentDetail is the GET /v1/incidents/{id} payload: the incident
// summary plus its original recorded trail in wire form.
type IncidentDetail struct {
	ledger.IncidentSummary
	// Labels is the recorded ground-truth gesture sequence, when the
	// original stream supplied one.
	Labels []int `json:"labels,omitempty"`
	// Verdicts and Actions are the original recorded trail, in the same
	// wire form the live stream emitted.
	Verdicts []VerdictMsg `json:"verdicts"`
	Actions  []ActionMsg  `json:"actions"`
	// EndReason is the recorded session termination cause ("eof",
	// "error: ..."), empty when the session never closed.
	EndReason string `json:"end_reason,omitempty"`
}

// ReplayTrail is one verdict/action trail of a replay response.
type ReplayTrail struct {
	Backend  string       `json:"backend"`
	Model    string       `json:"model,omitempty"`
	Policy   string       `json:"policy,omitempty"`
	Verdicts []VerdictMsg `json:"verdicts"`
	Actions  []ActionMsg  `json:"actions"`
}

// ReplayResult is the POST /v1/incidents/{id}/replay payload: the fresh
// trail next to the original, with a byte-level match verdict.
type ReplayResult struct {
	Incident ledger.IncidentSummary `json:"incident"`
	Original ReplayTrail            `json:"original"`
	Replay   ReplayTrail            `json:"replay"`
	// VerdictsMatch / ActionsMatch report whether the replayed trail is
	// byte-identical (in wire JSON) to the original — expected true when
	// replaying through the original backend and policy.
	VerdictsMatch bool `json:"verdicts_match"`
	ActionsMatch  bool `json:"actions_match"`
}

// ledgerStore returns the store behind the configured appender, or nil.
func (s *Server) ledgerStore() ledger.Store { return s.cfg.Ledger.Store() }

// Incidents lists the captured incidents, newest first (the
// GET /v1/incidents payload). limit > 0 caps the list.
func (s *Server) Incidents(limit int) ([]ledger.IncidentSummary, error) {
	store := s.ledgerStore()
	if store == nil {
		return nil, ErrNoLedger
	}
	// Everything queued so far must be visible: list-after-stop is the
	// common diagnostic flow and must not race the batch writer.
	s.cfg.Ledger.Flush()
	return ledger.ScanIncidents(store, limit)
}

// Incident materializes one incident's recorded trail (the
// GET /v1/incidents/{id} payload).
func (s *Server) Incident(id string) (*IncidentDetail, error) {
	store := s.ledgerStore()
	if store == nil {
		return nil, ErrNoLedger
	}
	session, err := ledger.ParseIncidentID(id)
	if err != nil {
		return nil, err
	}
	s.cfg.Ledger.Flush()
	inc, err := ledger.LoadIncident(store, session)
	if err != nil {
		return nil, err
	}
	return incidentDetail(inc), nil
}

// ResolveIncident acknowledges an incident (the DELETE /v1/incidents/{id}
// handler): the session is unpinned so retention may reclaim the
// segments backing it. The events themselves are not deleted — until
// compaction actually removes them the incident remains listable and
// replayable; resolving is the explicit "diagnosed, disk may go" signal
// without which pinned segments would accumulate forever.
func (s *Server) ResolveIncident(id string) error {
	store := s.ledgerStore()
	if store == nil {
		return ErrNoLedger
	}
	session, err := ledger.ParseIncidentID(id)
	if err != nil {
		return err
	}
	// A just-latched incident pins at append time; flush so it is visible.
	s.cfg.Ledger.Flush()
	for _, pinned := range store.Pinned() {
		if pinned == session {
			store.Unpin(session)
			return nil
		}
	}
	return ledger.ErrNoIncident{Session: session}
}

// incidentDetail renders a ledger incident in wire form.
func incidentDetail(inc *ledger.Incident) *IncidentDetail {
	d := &IncidentDetail{
		IncidentSummary: inc.IncidentSummary,
		Verdicts:        make([]VerdictMsg, 0, len(inc.Verdicts)),
		Actions:         wireActions(inc.Actions, inc.Policy),
		EndReason:       inc.EndReason,
	}
	for _, v := range inc.Verdicts {
		d.Verdicts = append(d.Verdicts, WireVerdict(v))
	}
	if len(inc.Labels) > 0 {
		d.Labels = make([]int, len(inc.Labels))
		for i, l := range inc.Labels {
			d.Labels[i] = int(l)
		}
	}
	return d
}

// wireActions renders a recorded action trail in wire form.
func wireActions(actions []ledger.ActionRecord, policy string) []ActionMsg {
	out := make([]ActionMsg, 0, len(actions))
	for _, a := range actions {
		out = append(out, ActionMsg{
			I:          a.FrameIndex,
			Level:      a.Level,
			AlertFrame: a.AlertFrame,
			Score:      a.Score,
			Policy:     policy,
		})
	}
	return out
}

// Replay re-runs an incident's recorded input stream through a served
// backend and policy (the POST /v1/incidents/{id}/replay handler).
// Empty backend/policy default to the incident's originals; an empty
// original policy replays unguarded. The replay goes through a live
// stream's admission, so its refusals are the same *ErrorMsg (404 for an
// unknown backend or policy, 429 at the session cap, 503 while
// draining), and it holds a session slot while it runs. Its pump binds
// the session, guarded like a live stream's, but never opens a recorder,
// so a replay is never recorded and can never create an incident.
func (s *Server) Replay(ctx context.Context, id, backend, policy string) (*ReplayResult, error) {
	store := s.ledgerStore()
	if store == nil {
		return nil, ErrNoLedger
	}
	session, err := ledger.ParseIncidentID(id)
	if err != nil {
		return nil, err
	}
	s.cfg.Ledger.Flush()
	inc, err := ledger.LoadIncident(store, session)
	if err != nil {
		return nil, err
	}
	if len(inc.Inputs) != len(inc.Verdicts) {
		return nil, fmt.Errorf("serve: incident %s has %d recorded inputs for %d verdicts; not replayable",
			id, len(inc.Inputs), len(inc.Verdicts))
	}
	if backend == "" {
		backend = inc.Backend
	}
	if policy == "" {
		policy = inc.Policy
	}
	p, em := s.admit(backend, policy)
	if em != nil {
		return nil, em
	}
	defer p.close()
	// The recorded trail in wire form; its labels bind the replay too.
	orig := incidentDetail(inc)
	if em := p.bind(orig.Labels); em != nil {
		return nil, em
	}

	replay := ReplayTrail{
		Backend:  backend,
		Model:    p.sess.Version(),
		Policy:   policy,
		Verdicts: make([]VerdictMsg, 0, len(inc.Inputs)),
		Actions:  []ActionMsg{},
	}
	for i := range inc.Inputs {
		v, err := p.sess.Push(ctx, &inc.Inputs[i])
		if err != nil {
			return nil, fmt.Errorf("serve: replay frame %d: %w", i, err)
		}
		if p.gs != nil {
			if d := p.gs.Decision(); d.Changed {
				replay.Actions = append(replay.Actions, actionMsg(d, policy))
			}
		}
		replay.Verdicts = append(replay.Verdicts, WireVerdict(v))
	}

	original := ReplayTrail{
		Backend:  inc.Backend,
		Model:    inc.Model,
		Policy:   inc.Policy,
		Verdicts: orig.Verdicts,
		Actions:  orig.Actions,
	}
	return &ReplayResult{
		Incident:      inc.IncidentSummary,
		Original:      original,
		Replay:        replay,
		VerdictsMatch: wireEqual(original.Verdicts, replay.Verdicts),
		ActionsMatch:  wireEqual(original.Actions, replay.Actions),
	}, nil
}

// wireEqual compares two trails by their wire JSON bytes — the same
// currency the golden tests use.
func wireEqual(a, b any) bool {
	ab, err1 := json.Marshal(a)
	bb, err2 := json.Marshal(b)
	return err1 == nil && err2 == nil && string(ab) == string(bb)
}

// handleIncidents answers GET /v1/incidents.
func (s *Server) handleIncidents(w http.ResponseWriter, r *http.Request) {
	if !getOnly(w, r) {
		return
	}
	limit := 0
	if v := r.URL.Query().Get("limit"); v != "" {
		n, err := strconv.Atoi(v)
		if err != nil || n < 0 {
			http.Error(w, "bad limit", http.StatusBadRequest)
			return
		}
		limit = n
	}
	incidents, err := s.Incidents(limit)
	if err != nil {
		writeIncidentError(w, err)
		return
	}
	if incidents == nil {
		incidents = []ledger.IncidentSummary{}
	}
	writeJSON(w, http.StatusOK, map[string]any{"incidents": incidents})
}

// handleIncident routes /v1/incidents/{id} and /v1/incidents/{id}/replay.
func (s *Server) handleIncident(w http.ResponseWriter, r *http.Request) {
	rest := strings.TrimPrefix(r.URL.Path, "/v1/incidents/")
	if id, ok := strings.CutSuffix(rest, "/replay"); ok {
		if r.Method != http.MethodPost {
			http.Error(w, "POST only", http.StatusMethodNotAllowed)
			return
		}
		q := r.URL.Query()
		res, err := s.Replay(r.Context(), id, q.Get("backend"), q.Get("policy"))
		if err != nil {
			writeIncidentError(w, err)
			return
		}
		writeJSON(w, http.StatusOK, res)
		return
	}
	if strings.Contains(rest, "/") {
		http.Error(w, "not found", http.StatusNotFound)
		return
	}
	switch r.Method {
	case http.MethodGet:
		detail, err := s.Incident(rest)
		if err != nil {
			writeIncidentError(w, err)
			return
		}
		writeJSON(w, http.StatusOK, detail)
	case http.MethodDelete:
		if err := s.ResolveIncident(rest); err != nil {
			writeIncidentError(w, err)
			return
		}
		writeJSON(w, http.StatusOK, map[string]any{"id": rest, "resolved": true})
	default:
		http.Error(w, "GET or DELETE only", http.StatusMethodNotAllowed)
	}
}

// writeIncidentError maps incident-API failures onto HTTP statuses; a
// replay's admission refusal answers with its own code.
func writeIncidentError(w http.ResponseWriter, err error) {
	var em *ErrorMsg
	if errors.As(err, &em) {
		http.Error(w, em.Message, em.Code)
		return
	}
	status := http.StatusInternalServerError
	var noInc ledger.ErrNoIncident
	switch {
	case errors.Is(err, ErrNoLedger):
		status = http.StatusNotImplemented
	case errors.As(err, &noInc), strings.Contains(err.Error(), "malformed incident id"):
		status = http.StatusNotFound
	}
	http.Error(w, err.Error(), status)
}
