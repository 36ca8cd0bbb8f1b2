package serve

import (
	"context"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"reflect"
	"testing"

	"repro/safemon"
	"repro/safemon/guard"
)

// testGuardPolicy confirms after 2 evidence frames and climbs one rung
// per evidence frame to SafeStop. Envelope violation scores for the wild
// frames below are orders of magnitude above 1.
func testGuardPolicy() guard.Policy {
	return guard.Policy{
		Name: "stop-fast", Threshold: 1.0,
		DebounceFrames: 2, ReleaseFrames: 2, EscalateFrames: 1,
		InitialAction: guard.ActionWarn, MaxAction: guard.ActionSafeStop,
		ReactionBudgetFrames: 5,
	}
}

// newGuardedService stands up a server with guard policies configured.
func newGuardedService(t *testing.T, policies ...guard.Policy) (*Server, *Client) {
	t.Helper()
	det := fittedDetector(t, "envelope")
	srv, err := NewServer(Config{
		Detectors: map[string]safemon.Detector{"envelope": det},
		Policies:  policies,
	})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(func() {
		ts.Close()
		srv.Shutdown()
	})
	return srv, &Client{BaseURL: ts.URL, HTTPClient: ts.Client()}
}

// guardProbeFrames returns safe frames (drawn from the training set, by
// construction inside the envelope) and a wild frame far outside it.
func guardProbeFrames(t testing.TB) (safe, wild safemon.Frame) {
	t.Helper()
	fold := testFold(t)
	safe = fold.Train[0].Frames[10]
	wild = safe
	for i := range wild {
		wild[i] += 50
	}
	return safe, wild
}

// TestGuardedStreamActions drives a guarded stream end to end: action
// records must interleave at the policy's deterministic frames, latch at
// SafeStop, and land in the /metrics guard counters and /v1/policies.
func TestGuardedStreamActions(t *testing.T) {
	_, client := newGuardedService(t, testGuardPolicy())
	ctx := context.Background()
	safe, wild := guardProbeFrames(t)

	st, err := client.OpenGuarded(ctx, "envelope", "stop-fast", nil)
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()

	// 5 safe, 4 wild, 5 safe: evidence at frames 5-8, debounce confirms
	// at 6, the ladder reaches safe-stop at 8 and latches through the
	// trailing safe frames.
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
	for i, f := range frames {
		if err := st.Send(f); err != nil {
			t.Fatalf("send %d: %v", i, err)
		}
		v, err := st.Recv()
		if err != nil {
			t.Fatalf("recv %d: %v", i, err)
		}
		if v.FrameIndex != i {
			t.Fatalf("verdict %d has index %d", i, v.FrameIndex)
		}
	}
	if err := st.CloseSend(); err != nil {
		t.Fatal(err)
	}
	if _, err := st.Recv(); err != io.EOF {
		t.Fatalf("expected done, got %v", err)
	}

	want := []ActionMsg{
		{I: 6, Level: "warn", AlertFrame: 6, Policy: "stop-fast"},
		{I: 7, Level: "pause", AlertFrame: 6, Policy: "stop-fast"},
		{I: 8, Level: "safe-stop", AlertFrame: 6, Policy: "stop-fast"},
	}
	got := st.Actions()
	if len(got) != len(want) {
		t.Fatalf("actions = %+v, want %d records", got, len(want))
	}
	for i := range want {
		g := got[i]
		if g.Score <= 1.0 {
			t.Errorf("action %d score = %v, want > threshold", i, g.Score)
		}
		g.Score = 0
		if g != want[i] {
			t.Errorf("action %d = %+v, want %+v", i, got[i], want[i])
		}
	}

	scrape := scrapeMetrics(t, client.httpClient(), client.BaseURL+"/metrics")
	if got := scrape.get(t, "safemon_guarded_streams_total"); got != 1 {
		t.Errorf("guarded streams = %v, want 1", got)
	}
	checkTransitions(t, scrape, map[string]float64{"alert": 1, "warn": 1, "pause": 1, "safe_stop": 1})

	// /v1/policies round-trips the full policy definition.
	policies, err := client.Policies(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if len(policies) != 1 || !reflect.DeepEqual(policies[0], testGuardPolicy()) {
		t.Errorf("policies = %+v", policies)
	}
}

// TestGuardedStreamRelease pins the hysteresis path over the wire: a
// Pause-capped policy must release after the configured safe run and
// count the release in /metrics.
func TestGuardedStreamRelease(t *testing.T) {
	p := testGuardPolicy()
	p.Name = "pause-only"
	p.MaxAction = guard.ActionPause
	_, client := newGuardedService(t, p)
	ctx := context.Background()
	safe, wild := guardProbeFrames(t)

	st, err := client.OpenGuarded(ctx, "envelope", "pause-only", nil)
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	frames := []*safemon.Frame{&safe, &wild, &wild, &wild, &safe, &safe, &safe}
	for i, f := range frames {
		if err := st.Send(f); err != nil {
			t.Fatalf("send %d: %v", i, err)
		}
		if _, err := st.Recv(); err != nil {
			t.Fatalf("recv %d: %v", i, err)
		}
	}
	if err := st.CloseSend(); err != nil {
		t.Fatal(err)
	}
	if _, err := st.Recv(); err != io.EOF {
		t.Fatalf("expected done, got %v", err)
	}

	// Evidence at 1-3: confirm at 2 (warn), pause at 3 (capped); safe
	// frames from 4 on: the 2-frame release hysteresis lands at 5.
	var levels []string
	for _, a := range st.Actions() {
		levels = append(levels, a.Level)
	}
	if want := []string{"warn", "pause", "none"}; !reflect.DeepEqual(levels, want) {
		t.Fatalf("levels = %v, want %v", levels, want)
	}
	if last := st.Actions()[2]; last.I != 5 || last.AlertFrame != -1 {
		t.Errorf("release record = %+v", last)
	}
	scrape := scrapeMetrics(t, client.httpClient(), client.BaseURL+"/metrics")
	checkTransitions(t, scrape, map[string]float64{"alert": 1, "warn": 1, "pause": 1, "release": 1})
}

// checkTransitions requires every safemon_guard_transitions_total
// series to equal want[action], zero where absent.
func checkTransitions(t *testing.T, scrape *promScrape, want map[string]float64) {
	t.Helper()
	for _, action := range []string{"alert", "warn", "pause", "safe_stop", "retract", "release"} {
		key := fmt.Sprintf("safemon_guard_transitions_total{action=%q}", action)
		if got := scrape.get(t, key); got != want[action] {
			t.Errorf("%s = %v, want %v", key, got, want[action])
		}
	}
}

// TestGuardedStreamAdmission pins the failure modes: unknown policy is a
// 404 admission error, and a policy on a server with none configured too.
func TestGuardedStreamAdmission(t *testing.T) {
	_, client := newGuardedService(t, testGuardPolicy())
	ctx := context.Background()
	_, err := client.OpenGuarded(ctx, "envelope", "nope", nil)
	var em *ErrorMsg
	if !errors.As(err, &em) || em.Code != http.StatusNotFound {
		t.Fatalf("unknown policy error = %v", err)
	}

	det := fittedDetector(t, "envelope")
	srv, err := NewServer(Config{Detectors: map[string]safemon.Detector{"envelope": det}})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(func() { ts.Close(); srv.Shutdown() })
	bare := &Client{BaseURL: ts.URL, HTTPClient: ts.Client()}
	if _, err := bare.OpenGuarded(ctx, "envelope", "any", nil); !errors.As(err, &em) || em.Code != http.StatusNotFound {
		t.Fatalf("policy on policy-less server = %v", err)
	}
	// And an unguarded stream on a guarded server emits no actions.
	st, err := bare.Open(ctx, "envelope", nil)
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	safe, _ := guardProbeFrames(t)
	if err := st.Send(&safe); err != nil {
		t.Fatal(err)
	}
	if _, err := st.Recv(); err != nil {
		t.Fatal(err)
	}
	if len(st.Actions()) != 0 {
		t.Errorf("unguarded stream collected actions: %+v", st.Actions())
	}
}

// TestServerRejectsBadPolicies pins construction-time validation.
func TestServerRejectsBadPolicies(t *testing.T) {
	det := fittedDetector(t, "envelope")
	cases := map[string][]guard.Policy{
		"unnamed":   {{Threshold: 0.5}},
		"duplicate": {{Name: "a", Threshold: 0.5}, {Name: "a", Threshold: 0.6}},
		"invalid":   {{Name: "a", Threshold: -1}},
	}
	for name, ps := range cases {
		if _, err := NewServer(Config{
			Detectors: map[string]safemon.Detector{"envelope": det},
			Policies:  ps,
		}); err == nil {
			t.Errorf("%s: NewServer accepted bad policies", name)
		}
	}
}
