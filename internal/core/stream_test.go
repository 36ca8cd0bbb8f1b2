package core

import (
	"testing"

	"repro/internal/dataset"
	"repro/internal/gesture"
	"repro/internal/synth"
)

// streamFixtures trains a small gesture-specific library and a monolithic
// one on the same fold for the streaming-guard tests.
func streamFixtures(t *testing.T) (*ErrorLibrary, *ErrorLibrary, dataset.LOSOSplit) {
	t.Helper()
	demos, err := synth.Generate(synth.Config{
		Task: gesture.Suturing, Hz: 30, Seed: 23,
		NumDemos: 6, NumTrials: 2, Subjects: 2, DurationScale: 0.3,
	})
	if err != nil {
		t.Fatal(err)
	}
	fold := dataset.LOSO(synth.Trajectories(demos))[0]
	cfg := DefaultErrorDetectorConfig()
	cfg.Epochs = 2
	cfg.TrainStride = 6
	lib, err := TrainErrorLibrary(fold.Train, cfg)
	if err != nil {
		t.Fatal(err)
	}
	mono, err := TrainMonolithicDetector(fold.Train, cfg)
	if err != nil {
		t.Fatal(err)
	}
	return lib, mono, fold
}

type streamCase struct {
	name string
	mon  *Monitor
}

// streamCases returns the monitors the stream tests cover: perfect
// boundaries, the same with boundary lookahead (its grammar fitted on the
// training gestures), and a gesture-agnostic library.
func streamCases(t *testing.T, lib, mono *ErrorLibrary, fold dataset.LOSOSplit) []streamCase {
	t.Helper()
	perfect := NewMonitor(nil, lib)
	perfect.UseGroundTruthGestures = true
	seqs := make([][]int, len(fold.Train))
	for i, tr := range fold.Train {
		seqs[i] = tr.GestureSequence()
	}
	chain, err := gesture.FitMarkovChain(seqs)
	if err != nil {
		t.Fatal(err)
	}
	lookahead := *perfect
	lookahead.Lookahead = chain
	return []streamCase{
		{"perfect-boundaries", perfect},
		{"perfect-boundaries+lookahead", &lookahead},
		{"gesture-agnostic", NewMonitor(nil, mono)},
	}
}

// TestNewStreamGuard characterizes the perfect-boundary guard in
// Monitor.NewStream. The previous tangled condition
// (UseGroundTruthGestures || !GestureSpecific) && GestureSpecific && gt == nil
// was logically equivalent to the simplified one — its gesture-agnostic
// clause was dead code ((A || !B) && B reduces to A && B) — so these tests
// pin down both streaming modes to keep the simplification behavior-
// preserving.
func TestNewStreamGuard(t *testing.T) {
	lib, mono, fold := streamFixtures(t)
	labels := fold.Test[0].Gestures

	// Perfect boundaries + gesture-specific library: labels are required.
	perfect := NewMonitor(nil, lib)
	perfect.UseGroundTruthGestures = true
	if _, err := perfect.NewStream(nil); err == nil {
		t.Error("perfect-boundary stream without labels should fail")
	}
	if _, err := perfect.NewStream(labels); err != nil {
		t.Errorf("perfect-boundary stream with labels: %v", err)
	}

	// Gesture-agnostic (monolithic) library: no labels needed in either
	// ground-truth setting.
	for _, useGT := range []bool{false, true} {
		agnostic := NewMonitor(nil, mono)
		agnostic.UseGroundTruthGestures = useGT
		if _, err := agnostic.NewStream(nil); err != nil {
			t.Errorf("gesture-agnostic stream (useGT=%v) without labels: %v", useGT, err)
		}
	}

	// Predicted context without a classifier is still rejected.
	headless := NewMonitor(nil, lib)
	if _, err := headless.NewStream(nil); err == nil {
		t.Error("gesture-specific stream without classifier should fail")
	}
}

// TestStreamMatchesRun checks each streaming mode against the offline
// path: with ground-truth context, with boundary lookahead on top, and
// gesture-agnostic, the stream's verdicts must equal Run's frame by frame,
// also after Reset.
func TestStreamMatchesRun(t *testing.T) {
	lib, mono, fold := streamFixtures(t)
	cases := streamCases(t, lib, mono, fold)

	// Lookahead only ever raises a score. Require that it raises some on
	// this trajectory, so the lookahead case cannot pass vacuously.
	base, err := cases[0].mon.Run(fold.Test[0])
	if err != nil {
		t.Fatal(err)
	}
	la, err := cases[1].mon.Run(fold.Test[0])
	if err != nil {
		t.Fatal(err)
	}
	raised, flipped := 0, 0
	for i, v := range la.Verdicts {
		switch b := base.Verdicts[i]; {
		case v.Score < b.Score:
			t.Fatalf("frame %d: lookahead lowered the score %v to %v", i, b.Score, v.Score)
		case v.Score > b.Score:
			raised++
		}
		if v.Unsafe != base.Verdicts[i].Unsafe {
			flipped++
		}
	}
	t.Logf("lookahead raised %d of %d scores and flipped %d verdicts", raised, len(la.Verdicts), flipped)
	if raised == 0 {
		t.Fatal("lookahead changed no score; the lookahead case would be vacuous")
	}

	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			traj := fold.Test[0]
			trace, err := tc.mon.Run(traj)
			if err != nil {
				t.Fatal(err)
			}
			labels := traj.Gestures
			stream, err := tc.mon.NewStream(labels)
			if err != nil {
				t.Fatal(err)
			}
			for i := range traj.Frames {
				v := stream.Push(&traj.Frames[i])
				if want := trace.Verdicts[i]; v != want {
					t.Fatalf("frame %d: stream %+v vs run %+v", i, v, want)
				}
			}

			// Reset replays identically.
			if err := stream.Reset(labels); err != nil {
				t.Fatal(err)
			}
			for i := range traj.Frames {
				if v, want := stream.Push(&traj.Frames[i]), trace.Verdicts[i]; v != want {
					t.Fatalf("after reset, frame %d: stream %+v vs run %+v", i, v, want)
				}
			}
		})
	}
}

// TestStreamResetPoolSafety pins the Reset contract: a stream abandoned
// mid-trajectory and Reset onto a different trajectory must produce
// verdicts identical to a fresh stream's — no window contents, frame
// counter, or stale labels may survive — across many reuse cycles.
func TestStreamResetPoolSafety(t *testing.T) {
	lib, mono, fold := streamFixtures(t)
	if len(fold.Test) < 2 {
		t.Skip("need two test trajectories")
	}
	cases := streamCases(t, lib, mono, fold)
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			reused, err := tc.mon.NewStream(fold.Test[0].Gestures)
			if err != nil {
				t.Fatal(err)
			}
			for cycle := 0; cycle < 3; cycle++ {
				for _, traj := range fold.Test[:2] {
					// Dirty the reused stream with a partial replay of the
					// other trajectory, then abandon it.
					other := fold.Test[0]
					if traj == fold.Test[0] {
						other = fold.Test[1]
					}
					for i := 0; i < other.Len()/3; i++ {
						reused.Push(&other.Frames[i])
					}
					if err := reused.Reset(traj.Gestures); err != nil {
						t.Fatal(err)
					}
					fresh, err := tc.mon.NewStream(traj.Gestures)
					if err != nil {
						t.Fatal(err)
					}
					for i := range traj.Frames {
						got, want := reused.Push(&traj.Frames[i]), fresh.Push(&traj.Frames[i])
						if got != want {
							t.Fatalf("cycle %d frame %d: reused %+v vs fresh %+v", cycle, i, got, want)
						}
					}
				}
			}
		})
	}
}

// TestStreamResetGuard checks that Reset re-validates the label contract.
func TestStreamResetGuard(t *testing.T) {
	lib, _, fold := streamFixtures(t)
	mon := NewMonitor(nil, lib)
	mon.UseGroundTruthGestures = true
	stream, err := mon.NewStream(fold.Test[0].Gestures)
	if err != nil {
		t.Fatal(err)
	}
	if err := stream.Reset(nil); err == nil {
		t.Error("Reset without labels in perfect-boundary mode should fail")
	}
}
