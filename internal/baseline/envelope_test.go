package baseline

import (
	"math"
	"testing"

	"repro/internal/gesture"
	"repro/internal/kinematics"
	"repro/internal/stats"
	"repro/internal/synth"
)

func envelopeDemos(t *testing.T, seed int64, n int) []*kinematics.Trajectory {
	t.Helper()
	demos, err := synth.Generate(synth.Config{
		Task: gesture.Suturing, Hz: 30, Seed: seed,
		NumDemos: n, NumTrials: 2, Subjects: 3, DurationScale: 0.4, ErrorRate: 0.3,
	})
	if err != nil {
		t.Fatal(err)
	}
	return synth.Trajectories(demos)
}

func TestEnvelopeRequiresFit(t *testing.T) {
	e := NewStaticEnvelope(kinematics.CRG(), false)
	var f kinematics.Frame
	if _, err := e.Score(&f, 1); err == nil {
		t.Error("expected ErrNotFitted")
	}
}

func TestEnvelopeRejectsAllUnsafe(t *testing.T) {
	trajs := envelopeDemos(t, 1, 2)
	for _, tr := range trajs {
		for i := range tr.Unsafe {
			tr.Unsafe[i] = true
		}
	}
	e := NewStaticEnvelope(kinematics.CRG(), false)
	if err := e.Fit(trajs); err == nil {
		t.Error("expected ErrNoSafeFrames")
	}
}

func TestEnvelopeSafeFramesScoreZero(t *testing.T) {
	trajs := envelopeDemos(t, 2, 6)
	e := NewStaticEnvelope(kinematics.CRG(), false)
	if err := e.Fit(trajs); err != nil {
		t.Fatal(err)
	}
	// Frames seen during training (safe ones) must be inside the envelope.
	scores, err := e.ScoreTrajectory(trajs[0])
	if err != nil {
		t.Fatal(err)
	}
	for i, s := range scores {
		if !trajs[0].Unsafe[i] && s > 0 {
			t.Fatalf("safe training frame %d scored %v", i, s)
		}
	}
}

func TestEnvelopeDetectsGrossViolations(t *testing.T) {
	trajs := envelopeDemos(t, 3, 6)
	e := NewStaticEnvelope(kinematics.CG(), false)
	if err := e.Fit(trajs); err != nil {
		t.Fatal(err)
	}
	var f kinematics.Frame
	f.SetCartesian(kinematics.Left, 10, 10, 10) // far outside the workspace
	score, err := e.Score(&f, 1)
	if err != nil {
		t.Fatal(err)
	}
	if score <= 1 {
		t.Errorf("gross violation scored only %v", score)
	}
}

// TestEnvelopeSaturatesOverflow pins the score of a finite frame whose
// excess overflows float64: the largest finite score, not +Inf.
func TestEnvelopeSaturatesOverflow(t *testing.T) {
	trajs := envelopeDemos(t, 3, 6)
	e := NewStaticEnvelope(kinematics.CG(), false)
	if err := e.Fit(trajs); err != nil {
		t.Fatal(err)
	}
	var f kinematics.Frame
	for i := range f {
		f[i] = 1e308
	}
	score, err := e.Score(&f, 1)
	if err != nil {
		t.Fatal(err)
	}
	if score != math.MaxFloat64 {
		t.Errorf("overflowing frame scored %v, want %v", score, math.MaxFloat64)
	}
}

func TestPerGestureEnvelopeBeatsGlobalOnAUC(t *testing.T) {
	// The paper's premise in miniature: context-conditioned thresholds
	// should separate unsafe frames at least as well as global ones.
	train := envelopeDemos(t, 4, 10)
	test := envelopeDemos(t, 5, 4)

	aucOf := func(perGesture bool) float64 {
		e := NewStaticEnvelope(kinematics.CRG(), perGesture)
		if err := e.Fit(train); err != nil {
			t.Fatal(err)
		}
		var scores []float64
		var labels []bool
		for _, tr := range test {
			s, err := e.ScoreTrajectory(tr)
			if err != nil {
				t.Fatal(err)
			}
			scores = append(scores, s...)
			for _, u := range tr.Unsafe {
				labels = append(labels, u)
			}
		}
		return stats.AUC(scores, labels)
	}
	global := aucOf(false)
	perG := aucOf(true)
	t.Logf("envelope AUC: global %.3f, per-gesture %.3f", global, perG)
	if perG < global-0.05 {
		t.Errorf("per-gesture envelope (%.3f) markedly worse than global (%.3f)", perG, global)
	}
	if perG < 0.5 {
		t.Errorf("per-gesture envelope AUC %.3f below chance", perG)
	}
}
