package safemon

import (
	"context"
	"errors"
	"testing"
)

// scriptedFront replays a fixed score sequence as the cascade's front
// session, making the gating behavior fully deterministic.
type scriptedFront struct {
	scores []float64
	i      int
	resets int
}

func (s *scriptedFront) Push(f *Frame) (FrameVerdict, error) {
	v := FrameVerdict{FrameIndex: s.i, Gesture: 5, Score: s.scores[s.i]}
	s.i++
	return v, nil
}

func (s *scriptedFront) Reset(groundTruth []int) error {
	s.i = 0
	s.resets++
	return nil
}

func (s *scriptedFront) Close() error { return nil }

// scriptedInner fakes the cascade's inner stream, counting inference and
// observe-only frames; every inference verdict is unsafe in context 3.
type scriptedInner struct{ pushes, observes int }

func (s *scriptedInner) Push(*Frame) FrameVerdict {
	s.pushes++
	return FrameVerdict{Gesture: 3, Score: 0.9, Unsafe: true}
}
func (s *scriptedInner) Observe(*Frame)    { s.observes++ }
func (s *scriptedInner) Reset([]int) error { return nil }

// TestCascadeArmHoldoff pins the gating semantics: a front score at or
// above the arm threshold runs the inner detector for holdoff frames,
// further suspicious frames refresh the counter, disarmed frames only
// observe, and Reset clears the armed state.
func TestCascadeArmHoldoff(t *testing.T) {
	scores := []float64{0.1, 0.6, 0.1, 0.1, 0.1, 0.1, 0.7, 0.8, 0.1, 0.1, 0.1, 0.1}
	front := &scriptedFront{scores: scores}
	inner := &scriptedInner{}
	s := &cascadeSession{
		front:   front,
		inner:   inner,
		arm:     0.5,
		holdoff: 3,
	}

	// Per frame: whether the inner detector should run.
	// f1 arms (0.6), covering f1..f3; f6 arms (0.7) and f7 refreshes
	// (0.8), covering f6..f9; everything else is disarmed.
	wantInner := []bool{false, true, true, true, false, false, true, true, true, true, false, false}
	for i := range scores {
		v, err := s.Push(&Frame{})
		if err != nil {
			t.Fatalf("frame %d: %v", i, err)
		}
		if wantInner[i] {
			if v.Gesture != 3 || !v.Unsafe {
				t.Errorf("frame %d: want inner verdict, got %+v", i, v)
			}
		} else {
			if v.Unsafe {
				t.Errorf("frame %d: disarmed frame must not be unsafe, got %+v", i, v)
			}
			if v.Score != scores[i] || v.Gesture != 5 {
				t.Errorf("frame %d: disarmed verdict should carry front score/context, got %+v", i, v)
			}
		}
	}
	if wantPushes := 7; inner.pushes != wantPushes {
		t.Errorf("inner ran %d frames, want %d", inner.pushes, wantPushes)
	}
	if wantObs := len(scores) - 7; inner.observes != wantObs {
		t.Errorf("inner observed %d frames, want %d", inner.observes, wantObs)
	}

	// Arm on the last scripted frame, then Reset: the armed state must not
	// leak into the next trajectory.
	front.scores = append(front.scores, 0.9)
	if _, err := s.Push(&Frame{}); err != nil {
		t.Fatal(err)
	}
	if s.armed == 0 {
		t.Fatal("expected session to be armed before Reset")
	}
	if err := s.Reset(nil); err != nil {
		t.Fatal(err)
	}
	if s.armed != 0 {
		t.Errorf("Reset left armed = %d, want 0", s.armed)
	}
	if front.resets != 1 {
		t.Errorf("front saw %d resets, want 1", front.resets)
	}
	pushesBefore := inner.pushes
	if v, err := s.Push(&Frame{}); err != nil || v.Unsafe || inner.pushes != pushesBefore {
		t.Errorf("first post-Reset quiet frame should be disarmed, got %+v (err %v, inner pushes %d->%d)",
			v, err, pushesBefore, inner.pushes)
	}
}

// TestCascadeRunSessionEquivalence checks that a single reused session
// (with Reset between trajectories) reproduces Run's verdicts exactly —
// in particular that Reset fully rewinds both stages and the armed state.
func TestCascadeRunSessionEquivalence(t *testing.T) {
	det := fittedDetector(t, "cascade")
	fold := testFold(t)

	var sess Session
	for ti, traj := range fold.Test {
		run, err := det.Run(context.Background(), traj)
		if err != nil {
			t.Fatalf("run traj %d: %v", ti, err)
		}
		if sess == nil {
			sess, err = det.NewSession(WithSessionLabels(traj.Gestures))
			if err != nil {
				t.Fatal(err)
			}
			defer sess.Close()
		} else if err := sess.Reset(traj.Gestures); err != nil {
			t.Fatalf("reset before traj %d: %v", ti, err)
		}
		for i := range traj.Frames {
			v, err := sess.Push(&traj.Frames[i])
			if err != nil {
				t.Fatalf("traj %d frame %d: %v", ti, i, err)
			}
			if v != run.Verdicts[i] {
				t.Fatalf("traj %d frame %d: session %+v != run %+v", ti, i, v, run.Verdicts[i])
			}
		}
	}
}

// TestCascadeAlternateStages exercises the non-default stage pairing
// (sdsdl front gating the lookahead detector) end to end.
func TestCascadeAlternateStages(t *testing.T) {
	if testing.Short() {
		t.Skip("trains two nn stages")
	}
	fold := testFold(t)
	opts := append(quickOptions("cascade"),
		WithCascadeStages("sdsdl", "lookahead"), WithAtoms(16),
		WithCascadeArm(0.05), WithCascadeHoldoff(10))
	det, err := Open("cascade", opts...)
	if err != nil {
		t.Fatal(err)
	}
	if err := det.Fit(context.Background(), fold.Train); err != nil {
		t.Fatal(err)
	}
	traj := fold.Test[0]
	trace, err := det.Run(context.Background(), traj)
	if err != nil {
		t.Fatal(err)
	}
	if len(trace.Verdicts) != len(traj.Frames) {
		t.Fatalf("got %d verdicts for %d frames", len(trace.Verdicts), len(traj.Frames))
	}
}

// TestCascadeValidation covers stage-name validation and the unfitted
// session error.
func TestCascadeValidation(t *testing.T) {
	fold := testFold(t)

	det, err := Open("cascade", WithCascadeStages("monolithic", ""))
	if err != nil {
		t.Fatal(err)
	}
	if err := det.Fit(context.Background(), fold.Train); err == nil {
		t.Error("nn backend as cascade front should be rejected")
	}

	det, err = Open("cascade", WithCascadeStages("", "envelope"))
	if err != nil {
		t.Fatal(err)
	}
	if err := det.Fit(context.Background(), fold.Train); err == nil {
		t.Error("envelope as cascade inner should be rejected")
	}

	det, err = Open("cascade")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := det.NewSession(); !errors.Is(err, ErrNotFitted) {
		t.Errorf("unfitted cascade NewSession error = %v, want ErrNotFitted", err)
	}
}
