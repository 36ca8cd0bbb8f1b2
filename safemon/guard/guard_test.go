package guard

import (
	"encoding/json"
	"math"
	"strings"
	"testing"

	"repro/internal/core"
)

// verdict builds a FrameVerdict for engine tests.
func verdict(i, g int, score float64) core.FrameVerdict {
	return core.FrameVerdict{FrameIndex: i, Gesture: g, Score: score}
}

// stepAll pushes scores through the engine (gesture 0, frame indices
// sequential from start) and returns the last decision.
func stepAll(e *Engine, start int, scores ...float64) Decision {
	var d Decision
	for k, s := range scores {
		d = e.Step(verdict(start+k, 0, s))
	}
	return d
}

func TestEngineDebounceSuppressesSpikes(t *testing.T) {
	e := MustEngine(Policy{Threshold: 0.5, DebounceFrames: 3, ReleaseFrames: 2, EscalateFrames: 1})
	// Isolated spikes shorter than the debounce never actuate.
	d := stepAll(e, 0, 0.9, 0.1, 0.9, 0.9, 0.1, 0.2)
	if d.Action != ActionNone || d.Alert {
		t.Fatalf("spiky stream engaged %v (alert=%v), want none", d.Action, d.Alert)
	}
	if c := e.Counters(); c.Alerts != 0 || c.Warns != 0 {
		t.Fatalf("counters after spikes = %+v, want no alerts", c)
	}
	// Three consecutive evidence frames confirm.
	d = stepAll(e, 6, 0.9, 0.9, 0.9)
	if d.Action != ActionWarn || !d.Alert || !d.Changed {
		t.Fatalf("after debounce: %+v, want warn/alert/changed", d)
	}
	if d.AlertFrame != 8 {
		t.Fatalf("alert frame = %d, want 8", d.AlertFrame)
	}
}

func TestEngineEscalationLadderAndLatch(t *testing.T) {
	e := MustEngine(Policy{
		Threshold: 0.5, DebounceFrames: 2, ReleaseFrames: 2,
		EscalateFrames: 2, InitialAction: ActionWarn, MaxAction: ActionRetract,
	})
	want := []Action{
		ActionNone,     // evidence 1 (debounce)
		ActionWarn,     // evidence 2: confirmed
		ActionWarn,     // evidence 3
		ActionPause,    // evidence 4: rung 1
		ActionPause,    // evidence 5
		ActionSafeStop, // evidence 6: rung 2
		ActionSafeStop, // evidence 7
		ActionRetract,  // evidence 8: rung 3 (MaxAction)
		ActionRetract,  // evidence 9: capped
	}
	for i, w := range want {
		d := e.Step(verdict(i, 0, 0.9))
		if d.Action != w {
			t.Fatalf("evidence frame %d: action %v, want %v", i, d.Action, w)
		}
	}
	// Retract latches: a long safe run must not release it.
	d := stepAll(e, len(want), 0.0, 0.0, 0.0, 0.0, 0.0, 0.0)
	if d.Action != ActionRetract || !d.Alert {
		t.Fatalf("latched action released: %+v", d)
	}
	c := e.Counters()
	if c.Alerts != 1 || c.Warns != 1 || c.Pauses != 1 || c.SafeStops != 1 || c.Retracts != 1 || c.Releases != 0 {
		t.Fatalf("counters = %+v", c)
	}
	// Reset clears the latch.
	e.Reset()
	if e.Action() != ActionNone {
		t.Fatalf("action after Reset = %v", e.Action())
	}
	if e.Counters().Retracts != 1 {
		t.Fatal("Reset must not clear lifetime counters")
	}
}

func TestEngineHysteresisReleasesWarnAndPause(t *testing.T) {
	e := MustEngine(Policy{
		Threshold: 0.5, DebounceFrames: 2, ReleaseFrames: 3,
		EscalateFrames: 0, // no ladder: Warn only
	})
	if d := stepAll(e, 0, 0.9, 0.9, 0.9); d.Action != ActionWarn {
		t.Fatalf("engage: %v", d.Action)
	}
	// Two safe frames are below the release hysteresis: warn holds.
	if d := stepAll(e, 3, 0.1, 0.1); d.Action != ActionWarn || d.Changed {
		t.Fatalf("early release: %+v", d)
	}
	// The third safe frame releases.
	d := stepAll(e, 5, 0.1)
	if d.Action != ActionNone || !d.Changed || d.Alert || d.AlertFrame != -1 {
		t.Fatalf("release: %+v", d)
	}
	if c := e.Counters(); c.Releases != 1 {
		t.Fatalf("releases = %d, want 1", c.Releases)
	}
	// A fresh episode re-confirms from scratch (debounce applies again).
	if d := stepAll(e, 6, 0.9); d.Action != ActionNone {
		t.Fatalf("single evidence frame after release engaged %v", d.Action)
	}
	if d := stepAll(e, 7, 0.9); d.Action != ActionWarn {
		t.Fatalf("re-confirmation failed: %v", d.Action)
	}
	if c := e.Counters(); c.Alerts != 2 {
		t.Fatalf("alerts = %d, want 2", c.Alerts)
	}
}

func TestEnginePerGestureThresholds(t *testing.T) {
	// Carry (gesture 6) is strict; the intentional G11 release tolerates
	// high scores.
	e := MustEngine(Policy{
		Threshold:         0.5,
		GestureThresholds: map[int]float64{6: 0.2, 11: 0.95},
		DebounceFrames:    1, ReleaseFrames: 1, EscalateFrames: 0,
	})
	if d := e.Step(verdict(0, 6, 0.3)); d.Action != ActionWarn || d.Threshold != 0.2 {
		t.Fatalf("carry context: %+v", d)
	}
	e.Reset()
	if d := e.Step(verdict(1, 11, 0.9)); d.Action != ActionNone || d.Threshold != 0.95 {
		t.Fatalf("release context: %+v", d)
	}
	e.Reset()
	if d := e.Step(verdict(2, 3, 0.6)); d.Action != ActionWarn || d.Threshold != 0.5 {
		t.Fatalf("default context: %+v", d)
	}
}

func TestEnginePanicScoreJumpsToMax(t *testing.T) {
	e := MustEngine(Policy{
		Threshold: 0.5, DebounceFrames: 2, ReleaseFrames: 2,
		EscalateFrames: 4, MaxAction: ActionSafeStop, PanicScore: 0.99,
	})
	// The debounce still applies to panic-grade evidence.
	if d := e.Step(verdict(0, 0, 1.0)); d.Action != ActionNone {
		t.Fatalf("panic bypassed debounce: %v", d.Action)
	}
	// On confirmation, a panic score skips the ladder entirely.
	d := e.Step(verdict(1, 0, 1.0))
	if d.Action != ActionSafeStop || !d.Changed {
		t.Fatalf("panic confirmation: %+v", d)
	}
	if c := e.Counters(); c.SafeStops != 1 || c.Warns != 0 {
		t.Fatalf("counters = %+v: a panic jump lands directly on max", c)
	}
}

// TestEngineNaNScoreIsEvidence pins the fail-safe reading of a NaN score:
// the monitor reports it unsafe, so the engine counts it as evidence and
// climbs to safe-stop after the warmup.
func TestEngineNaNScoreIsEvidence(t *testing.T) {
	e := MustEngine(DefaultPolicy())
	var d Decision
	for i := 0; i < 40; i++ {
		d = e.Step(core.FrameVerdict{FrameIndex: i, Score: math.NaN(), Unsafe: true})
	}
	if d.Action != ActionSafeStop || !d.Alert {
		t.Fatalf("after 40 NaN-scored unsafe verdicts: %+v, want a confirmed alert at safe-stop", d)
	}
}

func TestPolicyValidation(t *testing.T) {
	bad := []Policy{
		{Threshold: -1},
		{Threshold: 0.5, DebounceFrames: -1},
		{Threshold: 0.5, DebounceFrames: maxPolicyFrames + 1},
		{Threshold: 0.5, ReleaseFrames: -2},
		{Threshold: 0.5, EscalateFrames: -1},
		{Threshold: 0.5, InitialAction: ActionPause, MaxAction: ActionWarn},
		{Threshold: 0.5, InitialAction: Action(9)},
		{Threshold: 0.5, MaxAction: Action(-1)},
		{Threshold: 0.5, PanicScore: -0.1},
		{Threshold: 0.5, GestureThresholds: map[int]float64{-3: 0.1}},
	}
	for i, p := range bad {
		if _, err := NewEngine(p); err == nil {
			t.Errorf("policy %d (%+v) validated, want error", i, p)
		}
	}
	if _, err := NewEngine(DefaultPolicy()); err != nil {
		t.Fatalf("default policy rejected: %v", err)
	}
	// The zero-valued knobs resolve to the documented defaults.
	e := MustEngine(Policy{Threshold: 0.3})
	p := e.Policy()
	if p.DebounceFrames != 2 || p.ReleaseFrames != 4 || p.InitialAction != ActionWarn ||
		p.MaxAction != ActionSafeStop || p.ReactionBudgetFrames != 30 {
		t.Fatalf("defaults = %+v", p)
	}
}

func TestParsePolicyRoundTrip(t *testing.T) {
	data := []byte(`{
		"name": "carry-strict",
		"threshold": 0.4,
		"gesture_thresholds": {"6": 0.2, "11": 0.9},
		"debounce_frames": 3,
		"release_frames": 6,
		"escalate_frames": 2,
		"initial_action": "warn",
		"max_action": "retract",
		"panic_score": 0.98,
		"reaction_budget_frames": 20
	}`)
	p, err := ParsePolicy(data)
	if err != nil {
		t.Fatal(err)
	}
	if p.Name != "carry-strict" || p.MaxAction != ActionRetract || p.GestureThresholds[11] != 0.9 {
		t.Fatalf("parsed = %+v", p)
	}
	// Marshal → parse is stable.
	out, err := json.Marshal(p)
	if err != nil {
		t.Fatal(err)
	}
	p2, err := ParsePolicy(out)
	if err != nil {
		t.Fatal(err)
	}
	if p2.Name != p.Name || p2.PanicScore != p.PanicScore || p2.InitialAction != p.InitialAction {
		t.Fatalf("round trip: %+v != %+v", p2, p)
	}
}

func TestParsePolicyRejectsGarbage(t *testing.T) {
	cases := map[string]string{
		"unknown field":   `{"name":"x","threshold":0.5,"bogus":1}`,
		"unknown action":  `{"name":"x","threshold":0.5,"max_action":"explode"}`,
		"numeric action":  `{"name":"x","threshold":0.5,"initial_action":2}`,
		"nan threshold":   `{"name":"x","threshold":"nan"}`,
		"trailing data":   `{"name":"x","threshold":0.5}{"name":"y"}`,
		"array":           `[]`,
		"empty":           ``,
		"cap violation":   `{"name":"x","threshold":0.5,"debounce_frames":2000000}`,
		"bad max<initial": `{"name":"x","threshold":0.5,"initial_action":"safe-stop","max_action":"warn"}`,
	}
	for name, data := range cases {
		if _, err := ParsePolicy([]byte(data)); err == nil {
			t.Errorf("%s: parsed %q, want error", name, data)
		}
	}
}

func TestParsePolicies(t *testing.T) {
	data := []byte(`{"policies":[
		{"name":"b","threshold":0.5},
		{"name":"a","threshold":0.2,"max_action":"pause"}
	]}`)
	ps, err := ParsePolicies(data)
	if err != nil {
		t.Fatal(err)
	}
	if len(ps) != 2 || ps[0].Name != "a" || ps[1].Name != "b" {
		t.Fatalf("policies = %+v, want sorted a,b", ps)
	}
	for name, bad := range map[string]string{
		"empty set":    `{"policies":[]}`,
		"no name":      `{"policies":[{"threshold":0.5}]}`,
		"duplicate":    `{"policies":[{"name":"a","threshold":0.5},{"name":"a","threshold":0.6}]}`,
		"invalid item": `{"policies":[{"name":"a","threshold":-1}]}`,
		"unknown key":  `{"rules":[]}`,
	} {
		if _, err := ParsePolicies([]byte(bad)); err == nil {
			t.Errorf("%s: parsed, want error", name)
		}
	}
}

func TestActionNames(t *testing.T) {
	for a := ActionNone; a <= maxActionValue; a++ {
		parsed, err := ParseAction(a.String())
		if err != nil || parsed != a {
			t.Errorf("ParseAction(%q) = %v, %v", a.String(), parsed, err)
		}
	}
	if !ActionSafeStop.Latches() || !ActionRetract.Latches() || ActionPause.Latches() {
		t.Error("latch classification wrong")
	}
	if !ActionPause.Stops() || ActionWarn.Stops() {
		t.Error("stop classification wrong")
	}
	if !strings.Contains(Action(42).String(), "42") {
		t.Error("unknown action String should carry the value")
	}
}

// TestEngineStepZeroAlloc pins the guard's contribution to the streaming
// hot path at zero heap allocations per frame, including while an episode
// is escalating and while a latched action holds.
func TestEngineStepZeroAlloc(t *testing.T) {
	e := MustEngine(Policy{
		Threshold:         0.5,
		GestureThresholds: map[int]float64{6: 0.2},
		DebounceFrames:    2, ReleaseFrames: 2, EscalateFrames: 2,
	})
	i := 0
	scores := []float64{0.1, 0.9, 0.9, 0.9, 0.1, 0.1, 0.1}
	allocs := testing.AllocsPerRun(500, func() {
		e.Step(verdict(i, i%12, scores[i%len(scores)]))
		i++
	})
	if allocs != 0 {
		t.Errorf("Engine.Step allocates %.1f objects/frame, want 0", allocs)
	}
}

// BenchmarkGuardStep measures the per-frame cost of the policy engine —
// the closed loop's only addition to the session hot path. It must report
// 0 allocs/op; scripts/benchguard.sh fails CI otherwise.
func BenchmarkGuardStep(b *testing.B) {
	e := MustEngine(Policy{
		Threshold:         0.5,
		GestureThresholds: map[int]float64{6: 0.2, 11: 0.9},
		DebounceFrames:    2, ReleaseFrames: 4, EscalateFrames: 2,
	})
	scores := []float64{0.1, 0.15, 0.6, 0.7, 0.1, 0.05, 0.9, 0.2}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		e.Step(verdict(i, i%12, scores[i%len(scores)]))
	}
}
