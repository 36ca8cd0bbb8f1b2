package mitigation

import (
	"context"
	"math/rand"
	"reflect"
	"testing"

	"repro/internal/faultinject"
	"repro/internal/kinematics"
	"repro/internal/simulator"
	"repro/safemon"
	"repro/safemon/guard"
)

// smokeConfig is the tiny CI campaign behind `make mitigate-smoke`: the
// context-aware monitor plus the cascade that gates it, quick training, a
// handful of paired runs. Deterministic.
func smokeConfig() CampaignConfig {
	return CampaignConfig{
		Seed:               7,
		Hz:                 30,
		Backends:           []string{"context-aware", "cascade"},
		GroundTruthContext: true,
		TrainDemos:         6,
		TrainInjections:    12,
		EvalInjections:     8,
		FaultFreeEval:      4,
		Epochs:             4,
		TrainStride:        2,
	}
}

// TestMitigateSmoke is the closed-loop acceptance gate: on the injected
// suite each guarded backend — the context-aware monitor and the cascade
// that gates it behind the envelope front — must prevent at least one
// block-drop hazard the unguarded baseline suffers, and on fault-free
// trajectories it must never engage a stopping action.
func TestMitigateSmoke(t *testing.T) {
	cfg := smokeConfig()
	res, err := RunCampaign(context.Background(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Reports) != len(cfg.Backends) {
		t.Fatalf("reports = %d, want %d", len(res.Reports), len(cfg.Backends))
	}
	t.Logf("\n%s", res.Render())
	for _, rep := range res.Reports {
		if rep.BaselineDrops == 0 {
			t.Fatalf("%s: no baseline block-drops: the eval fault band no longer causes hazards", rep.Backend)
		}
		if rep.Prevented == 0 {
			t.Errorf("%s: prevented = 0 of %d baseline drops; the loop is not closing", rep.Backend, rep.BaselineDrops)
		}
		if rep.FalseStops != 0 {
			t.Errorf("%s: false stops = %d on %d fault-free runs, want 0", rep.Backend, rep.FalseStops, rep.FaultFreeRuns)
		}
		if rep.FaultFreeRuns == 0 {
			t.Errorf("%s: no fault-free runs were evaluated", rep.Backend)
		}
		if rep.Prevented > 0 && rep.Stops == 0 {
			t.Errorf("%s: hazards were prevented without any stopping action: accounting is broken", rep.Backend)
		}
		if rep.Prevented+rep.Missed != rep.BaselineDrops {
			t.Errorf("%s: ledger does not balance: %d prevented + %d missed != %d baseline drops",
				rep.Backend, rep.Prevented, rep.Missed, rep.BaselineDrops)
		}
		if rep.Stops > 0 && rep.WithinBudget == 0 {
			t.Errorf("%s: no stop engaged within the policy's reaction budget", rep.Backend)
		}
	}
}

// TestCampaignDeterministic pins that the same config yields the same
// ledger — the property that makes the smoke gate meaningful in CI.
func TestCampaignDeterministic(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	cfg := smokeConfig()
	cfg.Backends = []string{"envelope"} // cheap to fit twice
	a, err := RunCampaign(context.Background(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	b, err := RunCampaign(context.Background(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	ra, rb := a.Reports[0], b.Reports[0]
	ra.TrainSeconds, rb.TrainSeconds = 0, 0
	if !reflect.DeepEqual(ra, rb) {
		t.Errorf("campaign not deterministic:\n%+v\n%+v", ra, rb)
	}
}

// TestRunGuardedPassthroughMatchesOpenLoop pins that a guard that never
// fires leaves the closed loop bit-identical to World.Run: same executed
// trajectory, same outcome, on the same world seed.
func TestRunGuardedPassthroughMatchesOpenLoop(t *testing.T) {
	const hz = 30
	demo := simulator.CollectFaultFree(5, 2, 2, hz)[0]
	perturbed, _, _, err := faultinject.Inject(demo, faultinject.Fault{
		Variable: faultinject.GrasperAngle, Target: 1.4,
		StartFrac: 0.35, Duration: 0.5, Manipulator: kinematics.Left,
	})
	if err != nil {
		t.Fatal(err)
	}

	base := simulator.NewWorld(rand.New(rand.NewSource(3))).Run(perturbed, 0)

	// An impossible threshold: the guard observes but never acts.
	det := fittedEnvelope(t, demo)
	sess := guardedSession(t, det, perturbed.Gestures, guard.Policy{
		Name: "inert", Threshold: 1e18, DebounceFrames: 1, ReleaseFrames: 1,
	})
	res, err := RunGuarded(simulator.NewWorld(rand.New(rand.NewSource(3))), perturbed, sess, GuardedRunConfig{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Stopped() || res.AlertFrame != -1 || len(res.Transitions) != 0 {
		t.Fatalf("inert guard acted: %+v", res)
	}
	if res.Result.Outcome != base.Outcome || res.Result.DropFrame != base.DropFrame {
		t.Errorf("outcome %v/%d vs open-loop %v/%d",
			res.Result.Outcome, res.Result.DropFrame, base.Outcome, base.DropFrame)
	}
	if !reflect.DeepEqual(res.Result.Traj, base.Traj) {
		t.Error("pass-through executed trajectory differs from open loop")
	}
}

// TestRunGuardedStopPreventsDrop drives the loop with a hair-trigger
// policy and a detector that flags the fault early, asserting the stop
// engages and the drop never happens.
func TestRunGuardedStopPreventsDrop(t *testing.T) {
	const hz = 30
	demos := simulator.CollectFaultFree(5, 3, 2, hz)
	// A short mid-carry jaw-open fault: the block drops far from the
	// receptacle, a clean block-drop hazard.
	perturbed, _, _, err := faultinject.Inject(demos[1], faultinject.Fault{
		Variable: faultinject.GrasperAngle, Target: 1.5,
		StartFrac: 0.35, Duration: 0.3, Manipulator: kinematics.Left,
	})
	if err != nil {
		t.Fatal(err)
	}
	base := simulator.NewWorld(rand.New(rand.NewSource(8))).Run(perturbed, 0)
	if base.DropFrame < 0 {
		t.Fatalf("baseline = %v with no drop, want a grip-failure drop", base.Outcome)
	}

	det := fittedEnvelope(t, demos[0], demos[2])
	sess := guardedSession(t, det, perturbed.Gestures, guard.Policy{
		Name: "hair-trigger", Threshold: 0.2,
		DebounceFrames: 1, ReleaseFrames: 2, EscalateFrames: 1,
		InitialAction: guard.ActionPause, MaxAction: guard.ActionSafeStop,
	})
	res, err := RunGuarded(simulator.NewWorld(rand.New(rand.NewSource(8))), perturbed, sess, GuardedRunConfig{})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Stopped() {
		t.Fatalf("guard never stopped (alert frame %d)", res.AlertFrame)
	}
	if res.Result.DropFrame >= 0 {
		t.Errorf("guarded run still dropped the block at %d (stop at %d, alert at %d)",
			res.Result.DropFrame, res.FirstStopFrame, res.AlertFrame)
	}
	if res.AlertFrame < 0 || res.FirstStopFrame < res.AlertFrame {
		t.Errorf("stop at %d precedes alert at %d", res.FirstStopFrame, res.AlertFrame)
	}
	if res.StopAlertFrame < res.AlertFrame || res.FirstStopFrame < res.StopAlertFrame {
		t.Errorf("stop episode anchor %d outside [%d, %d]", res.StopAlertFrame, res.AlertFrame, res.FirstStopFrame)
	}
	if res.Counters.SafeStops+res.Counters.Pauses == 0 {
		t.Errorf("counters recorded no stops: %+v", res.Counters)
	}
}

// fittedEnvelope trains a per-gesture (ground-truth context) envelope on
// open-loop executions of the given fault-free demos — a cheap,
// deterministic detector fixture that flags a mid-carry jaw opening
// early, unlike the global envelope whose whole-task grasper range hides
// it.
func fittedEnvelope(t *testing.T, demos ...*kinematics.Trajectory) safemon.Detector {
	t.Helper()
	rng := rand.New(rand.NewSource(42))
	var trainSet []*kinematics.Trajectory
	for _, d := range demos {
		trainSet = append(trainSet, simulator.NewWorld(rng).Run(d, 0).Traj)
	}
	det, err := safemon.Open("envelope",
		safemon.WithErrorFeatures(safemon.CG()),
		safemon.WithGroundTruthContext(),
	)
	if err != nil {
		t.Fatal(err)
	}
	if err := det.Fit(context.Background(), trainSet); err != nil {
		t.Fatal(err)
	}
	return det
}

// guardedSession opens a guarded session or fails the test.
func guardedSession(t *testing.T, det safemon.Detector, labels []int, p guard.Policy) safemon.GuardedSession {
	t.Helper()
	sess, err := det.NewSession(safemon.WithSessionLabels(labels), safemon.WithGuard(p))
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { sess.Close() })
	gs, ok := sess.(safemon.GuardedSession)
	if !ok {
		t.Fatalf("session %T is not guarded", sess)
	}
	return gs
}
