package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"io"
	"net/http"
	"net/http/httptest"
	"reflect"
	"testing"
	"time"

	"repro/safemon"
	"repro/safemon/guard"
	"repro/safemon/ledger"
)

// newLedgeredService stands up a Server recording into an in-memory
// ledger. The appender outlives the server (the server only borrows it),
// so cleanup closes it after Shutdown.
func newLedgeredService(t *testing.T, detectors map[string]safemon.Detector, policies ...guard.Policy) (*Server, *Client, *ledger.Appender) {
	t.Helper()
	app := ledger.NewAppender(ledger.NewMemoryStore(0), ledger.Options{})
	t.Cleanup(func() { app.Close() })
	srv, err := NewServer(Config{
		Detectors: detectors,
		Policies:  policies,
		Ledger:    app,
	})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(func() {
		ts.Close()
		srv.Shutdown()
	})
	return srv, &Client{BaseURL: ts.URL, HTTPClient: ts.Client()}, app
}

// driveIncident streams safe/wild/safe frames through a guarded NDJSON
// stream so the policy latches, and returns the verdicts and actions the
// live stream delivered.
func driveIncident(t *testing.T, client *Client, backend, policy string, frames []*safemon.Frame) ([]safemon.FrameVerdict, []ActionMsg) {
	t.Helper()
	return driveIncidentOver(t, client, "json", backend, policy, frames)
}

// driveIncidentOver is driveIncident over a chosen transport: "json" or
// "binary" for a /v1/stream codec, "binary-mux" for one logical session
// on a /v1/mux connection.
func driveIncidentOver(t *testing.T, client *Client, codec, backend, policy string, frames []*safemon.Frame) ([]safemon.FrameVerdict, []ActionMsg) {
	t.Helper()
	ctx := context.Background()
	var st interface {
		Send(*safemon.Frame) error
		Recv() (safemon.FrameVerdict, error)
		CloseSend() error
		Actions() []ActionMsg
	}
	if codec == "binary-mux" {
		m, err := client.OpenMux(ctx)
		if err != nil {
			t.Fatal(err)
		}
		defer m.Close()
		if st, err = m.Open(ctx, backend, policy, nil); err != nil {
			t.Fatal(err)
		}
	} else {
		c := *client
		c.Codec = codec
		s, err := c.OpenGuarded(ctx, backend, policy, nil)
		if err != nil {
			t.Fatal(err)
		}
		defer s.Close()
		st = s
	}
	var verdicts []safemon.FrameVerdict
	for i, f := range frames {
		if err := st.Send(f); err != nil {
			t.Fatalf("send %d: %v", i, err)
		}
		v, err := st.Recv()
		if err != nil {
			t.Fatalf("recv %d: %v", i, err)
		}
		verdicts = append(verdicts, v)
	}
	if err := st.CloseSend(); err != nil {
		t.Fatal(err)
	}
	if _, err := st.Recv(); err != io.EOF {
		t.Fatalf("expected done, got %v", err)
	}
	return verdicts, st.Actions()
}

// incidentFrames is the canonical attack shape from the guard tests:
// 5 safe, 4 wild, 5 safe — under the stop-fast policy the ladder reaches
// safe-stop at frame 8 and latches.
func incidentFrames(t *testing.T) []*safemon.Frame {
	t.Helper()
	safe, wild := guardProbeFrames(t)
	frames := make([]*safemon.Frame, 0, 14)
	for i := 0; i < 5; i++ {
		frames = append(frames, &safe)
	}
	for i := 0; i < 4; i++ {
		frames = append(frames, &wild)
	}
	for i := 0; i < 5; i++ {
		frames = append(frames, &safe)
	}
	return frames
}

// waitIncidentClosed polls the incident detail until the recorder's
// deferred session-end event lands (the handler emits Done to the client
// before its deferred End runs, so list-after-EOF can race it briefly).
func waitIncidentClosed(t *testing.T, client *Client, id string) *IncidentDetail {
	t.Helper()
	ctx := context.Background()
	deadline := time.Now().Add(5 * time.Second)
	for {
		detail, err := client.Incident(ctx, id)
		if err != nil {
			t.Fatal(err)
		}
		if detail.Closed || time.Now().After(deadline) {
			return detail
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// wireMsgLines renders already-wire-form verdicts the same way wireLines
// renders safemon verdicts, so trails from both sides compare as bytes.
func wireMsgLines(t *testing.T, verdicts []VerdictMsg) []byte {
	t.Helper()
	var buf bytes.Buffer
	enc := json.NewEncoder(&buf)
	for _, v := range verdicts {
		if err := enc.Encode(v); err != nil {
			t.Fatal(err)
		}
	}
	return buf.Bytes()
}

// TestIncidentRoundTripOverServe is the incidents smoke test, run over
// every transport that records into the ledger: a guarded stream latches
// safe-stop, the incident shows up in GET /v1/incidents, its detail
// carries the exact recorded trail, and a same-backend same-policy
// replay reproduces that trail byte-identically. The binary-mux case is
// the path perfbench's guarded-incidents workload drives.
func TestIncidentRoundTripOverServe(t *testing.T) {
	for _, codec := range []string{"json", "binary", "binary-mux"} {
		t.Run(codec, func(t *testing.T) {
			det := fittedDetector(t, "envelope")
			_, client, _ := newLedgeredService(t, map[string]safemon.Detector{"envelope": det}, testGuardPolicy())
			ctx := context.Background()

			frames := incidentFrames(t)
			verdicts, actions := driveIncidentOver(t, client, codec, "envelope", "stop-fast", frames)
			if len(actions) == 0 || actions[len(actions)-1].Level != "safe-stop" {
				t.Fatalf("stream did not latch: actions = %+v", actions)
			}

			incs, err := client.Incidents(ctx, 0)
			if err != nil {
				t.Fatal(err)
			}
			if len(incs) != 1 {
				t.Fatalf("incidents = %+v, want exactly 1", incs)
			}
			inc := incs[0]
			if inc.Backend != "envelope" || inc.Policy != "stop-fast" {
				t.Errorf("incident context = %q/%q", inc.Backend, inc.Policy)
			}
			if inc.TriggerAction != "safe-stop" {
				t.Errorf("trigger action = %q, want safe-stop", inc.TriggerAction)
			}
			if inc.TriggerFrame != 8 {
				t.Errorf("trigger frame = %d, want 8", inc.TriggerFrame)
			}

			detail := waitIncidentClosed(t, client, inc.ID)
			if !detail.Closed || detail.EndReason != "eof" {
				t.Errorf("detail closed=%v end=%q, want closed eof", detail.Closed, detail.EndReason)
			}
			if detail.Frames != len(frames) {
				t.Errorf("detail frames = %d, want %d", detail.Frames, len(frames))
			}
			if !bytes.Equal(wireMsgLines(t, detail.Verdicts), wireLines(t, verdicts)) {
				t.Errorf("recorded verdicts differ from the live stream's")
			}
			if !reflect.DeepEqual(detail.Actions, actions) {
				t.Errorf("recorded actions = %+v, want %+v", detail.Actions, actions)
			}

			res, err := client.ReplayIncident(ctx, inc.ID, "", "")
			if err != nil {
				t.Fatal(err)
			}
			if !res.VerdictsMatch || !res.ActionsMatch {
				t.Fatalf("replay fidelity: verdicts_match=%v actions_match=%v", res.VerdictsMatch, res.ActionsMatch)
			}
			if res.Replay.Backend != "envelope" || res.Replay.Policy != "stop-fast" {
				t.Errorf("replay defaulted to %q/%q", res.Replay.Backend, res.Replay.Policy)
			}
			if !bytes.Equal(wireMsgLines(t, res.Replay.Verdicts), wireLines(t, verdicts)) {
				t.Errorf("replayed verdicts differ from the live stream's")
			}

			// Unknown incidents and backends are 404s, not 500s.
			if _, err := client.Incident(ctx, "inc-999"); err == nil {
				t.Error("expected error for unknown incident")
			}
			if _, err := client.ReplayIncident(ctx, inc.ID, "no-such-backend", ""); err == nil {
				t.Error("expected error for unknown replay backend")
			}
		})
	}
}

func TestResolveIncidentUnpins(t *testing.T) {
	det := fittedDetector(t, "envelope")
	_, client, app := newLedgeredService(t, map[string]safemon.Detector{"envelope": det}, testGuardPolicy())
	ctx := context.Background()

	driveIncident(t, client, "envelope", "stop-fast", incidentFrames(t))
	incs, err := client.Incidents(ctx, 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(incs) != 1 {
		t.Fatalf("incidents = %+v, want exactly 1", incs)
	}
	pinner := app.Store().(ledger.Pinner)
	if pins := pinner.Pinned(); len(pins) != 1 || pins[0] != incs[0].Session {
		t.Fatalf("pinned = %v, want [%d]", pins, incs[0].Session)
	}

	// Acknowledge: the pin goes away so retention can reclaim the
	// segments; the events themselves are untouched, so the incident is
	// still listable and replayable until compaction removes them.
	if err := client.ResolveIncident(ctx, incs[0].ID); err != nil {
		t.Fatal(err)
	}
	if pins := pinner.Pinned(); len(pins) != 0 {
		t.Fatalf("pins after resolve = %v, want none", pins)
	}
	if after, err := client.Incidents(ctx, 0); err != nil || len(after) != 1 {
		t.Fatalf("resolved incident no longer listable: %v %v", after, err)
	}

	// A second resolve and a bogus ID are 404s, not 500s.
	for _, id := range []string{incs[0].ID, "inc-999", "not-an-id"} {
		err := client.ResolveIncident(ctx, id)
		var em *ErrorMsg
		if !errors.As(err, &em) || em.Code != http.StatusNotFound {
			t.Errorf("resolve %q: err = %v, want 404", id, err)
		}
	}
}

// TestReplayFidelityAllBackends is the replay-fidelity golden test: for
// every registered backend, an incident recorded through a live guarded
// stream must replay byte-identically — same verdict records, same action
// records — when re-run through the same backend and policy.
func TestReplayFidelityAllBackends(t *testing.T) {
	ctx := context.Background()
	// Hair-trigger ladder so every backend's wild-frame scores latch.
	pol := guard.Policy{
		Name: "latch", Threshold: 1e-9,
		DebounceFrames: 1, ReleaseFrames: 2, EscalateFrames: 1,
		InitialAction: guard.ActionWarn, MaxAction: guard.ActionSafeStop,
	}
	frames := incidentFrames(t)
	for _, backend := range []string{"context-aware", "lookahead", "monolithic", "envelope", "skipchain", "sdsdl"} {
		t.Run(backend, func(t *testing.T) {
			det := fittedDetector(t, backend)
			_, client, _ := newLedgeredService(t, map[string]safemon.Detector{backend: det}, pol)

			verdicts, _ := driveIncident(t, client, backend, "latch", frames)
			incs, err := client.Incidents(ctx, 0)
			if err != nil {
				t.Fatal(err)
			}
			if len(incs) != 1 {
				t.Fatalf("incidents = %+v, want exactly 1", incs)
			}
			res, err := client.ReplayIncident(ctx, incs[0].ID, "", "")
			if err != nil {
				t.Fatal(err)
			}
			if !res.VerdictsMatch {
				t.Errorf("replayed verdicts differ:\noriginal %s\nreplay   %s",
					wireMsgLines(t, res.Original.Verdicts), wireMsgLines(t, res.Replay.Verdicts))
			}
			if !res.ActionsMatch {
				t.Errorf("replayed actions differ:\noriginal %+v\nreplay   %+v",
					res.Original.Actions, res.Replay.Actions)
			}
			if !bytes.Equal(wireMsgLines(t, res.Replay.Verdicts), wireLines(t, verdicts)) {
				t.Errorf("replayed verdicts differ from the live stream's")
			}
		})
	}
}

// TestReplayAcrossBackendAndPolicy answers the "what would the other
// monitor have done?" half of the replay contract: re-running a recorded
// incident through a different backend must yield exactly what that
// backend's offline session produces on the recorded inputs, and a
// different policy must yield that policy's offline engine trail.
func TestReplayAcrossBackendAndPolicy(t *testing.T) {
	ctx := context.Background()
	envelope := fittedDetector(t, "envelope")
	skipchain := fittedDetector(t, "skipchain")
	warnOnly := guard.Policy{
		Name: "warn-only", Threshold: 1.0,
		DebounceFrames: 2, ReleaseFrames: 2, EscalateFrames: 1,
		InitialAction: guard.ActionWarn, MaxAction: guard.ActionWarn,
		ReactionBudgetFrames: 5,
	}
	_, client, _ := newLedgeredService(t,
		map[string]safemon.Detector{"envelope": envelope, "skipchain": skipchain},
		testGuardPolicy(), warnOnly)

	frames := incidentFrames(t)
	driveIncident(t, client, "envelope", "stop-fast", frames)
	incs, err := client.Incidents(ctx, 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(incs) != 1 {
		t.Fatalf("incidents = %+v, want exactly 1", incs)
	}
	id := incs[0].ID

	// Offline reference: the same recorded inputs through a fresh
	// skipchain session, verdicts stepped through the warn-only engine.
	sess, err := skipchain.NewSession()
	if err != nil {
		t.Fatal(err)
	}
	defer sess.Close()
	eng, err := guard.NewEngine(warnOnly)
	if err != nil {
		t.Fatal(err)
	}
	var offline []safemon.FrameVerdict
	var offlineActions []ActionMsg
	for _, f := range frames {
		v, err := sess.Push(f)
		if err != nil {
			t.Fatal(err)
		}
		offline = append(offline, v)
		if d := eng.Step(v); d.Changed {
			offlineActions = append(offlineActions, ActionMsg{
				I: d.FrameIndex, Level: d.Action.String(),
				AlertFrame: d.AlertFrame, Score: d.Score, Policy: "warn-only",
			})
		}
	}

	res, err := client.ReplayIncident(ctx, id, "skipchain", "warn-only")
	if err != nil {
		t.Fatal(err)
	}
	if res.Replay.Backend != "skipchain" || res.Replay.Policy != "warn-only" {
		t.Fatalf("replay ran as %q/%q", res.Replay.Backend, res.Replay.Policy)
	}
	if !bytes.Equal(wireMsgLines(t, res.Replay.Verdicts), wireLines(t, offline)) {
		t.Errorf("cross-backend replay verdicts differ from the offline session's")
	}
	if len(res.Replay.Actions) != len(offlineActions) || (len(offlineActions) > 0 && !reflect.DeepEqual(res.Replay.Actions, offlineActions)) {
		t.Errorf("cross-policy replay actions = %+v, want %+v", res.Replay.Actions, offlineActions)
	}
	// The original trail rode along unchanged.
	if res.Original.Backend != "envelope" || res.Original.Policy != "stop-fast" {
		t.Errorf("original trail labeled %q/%q", res.Original.Backend, res.Original.Policy)
	}
}

// TestShutdownFlushesInFlightStream is the graceful-drain regression
// test: with a stream still attached (no EOF sent), Shutdown must leave
// every event already emitted durably visible in the store — the drain
// may not lose the recorded tail.
func TestShutdownFlushesInFlightStream(t *testing.T) {
	det := fittedDetector(t, "envelope")
	srv, client, app := newLedgeredService(t, map[string]safemon.Detector{"envelope": det})
	ctx := context.Background()

	st, err := client.Open(ctx, "envelope", nil)
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	safe, _ := guardProbeFrames(t)
	const sent = 3
	for i := 0; i < sent; i++ {
		if err := st.Send(&safe); err != nil {
			t.Fatalf("send %d: %v", i, err)
		}
		if _, err := st.Recv(); err != nil {
			t.Fatalf("recv %d: %v", i, err)
		}
	}

	// The stream is mid-flight: no CloseSend, the handler is parked on
	// its next record. Shutdown must return (it waits only for in-flight
	// pushes) having flushed the appender.
	srv.Shutdown()

	var starts, verdicts int
	err = app.Store().Scan(0, func(e *ledger.Event) bool {
		switch e.Kind {
		case ledger.KindSessionStart:
			starts++
		case ledger.KindVerdict:
			verdicts++
		}
		return true
	})
	if err != nil {
		t.Fatal(err)
	}
	if starts != 1 || verdicts != sent {
		t.Fatalf("after shutdown store has %d starts / %d verdicts, want 1 / %d", starts, verdicts, sent)
	}
}

// TestStatsLedgerSection pins the ledger observability contract on
// /metrics: a ledgered server exports the appender's counters, and a
// ledger-less server registers no ledger family at all.
func TestStatsLedgerSection(t *testing.T) {
	det := fittedDetector(t, "envelope")
	srv, client, app := newLedgeredService(t, map[string]safemon.Detector{"envelope": det})
	ctx := context.Background()

	traj := testFold(t).Test[0]
	if _, err := client.StreamTrajectory(ctx, "envelope", traj); err != nil {
		t.Fatal(err)
	}
	waitReleased(t, srv)
	app.Flush()

	scrape := scrapeMetrics(t, client.httpClient(), client.BaseURL+"/metrics")
	if got := scrape.get(t, "safemon_ledger_queue_capacity"); got <= 0 {
		t.Errorf("queue capacity = %v, want > 0", got)
	}
	// One session: start + one verdict per frame + end.
	wantEvents := float64(traj.Len() + 2)
	if got := scrape.get(t, "safemon_ledger_appended_total"); got < wantEvents {
		t.Errorf("appended = %v, want >= %v", got, wantEvents)
	}
	if got := scrape.get(t, "safemon_ledger_last_seq_total"); got < wantEvents {
		t.Errorf("last seq = %v, want >= %v", got, wantEvents)
	}
	if dropped, errs := scrape.get(t, "safemon_ledger_dropped_total"), scrape.get(t, "safemon_ledger_errors_total"); dropped != 0 || errs != 0 {
		t.Errorf("dropped = %v errors = %v, want 0 / 0", dropped, errs)
	}
	if got := scrape.get(t, "safemon_ledger_bytes"); got <= 0 {
		t.Errorf("bytes = %v, want > 0", got)
	}
	if got := scrape.get(t, "safemon_ledger_batches_total"); got == 0 {
		t.Errorf("batches = 0, want > 0")
	}

	// A ledger-less server registers none of the ledger families.
	_, bare := newTestService(t, map[string]safemon.Detector{"envelope": fittedDetector(t, "envelope")}, ManagerConfig{})
	bareScrape := scrapeMetrics(t, bare.httpClient(), bare.BaseURL+"/metrics")
	for _, fam := range []string{
		"safemon_ledger_queue_depth", "safemon_ledger_queue_capacity",
		"safemon_ledger_appended_total", "safemon_ledger_batches_total",
		"safemon_ledger_dropped_total", "safemon_ledger_errors_total",
		"safemon_ledger_bytes", "safemon_ledger_segments",
		"safemon_ledger_last_seq_total",
	} {
		if _, ok := bareScrape.types[fam]; ok {
			t.Errorf("ledger-less /metrics registers %s", fam)
		}
	}

	// The incident API without a ledger is 501, not a crash.
	resp, err := bare.httpClient().Get(bare.BaseURL + "/v1/incidents")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotImplemented {
		t.Errorf("ledger-less /v1/incidents = %d, want 501", resp.StatusCode)
	}
}
