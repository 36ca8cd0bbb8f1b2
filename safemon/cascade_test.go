package safemon

import (
	"bytes"
	"context"
	"errors"
	"testing"
)

// scriptedFront replays a fixed score sequence as the cascade's front
// session, making the gating behavior fully deterministic.
type scriptedFront struct {
	scores []float64
	i      int
}

func (s *scriptedFront) Push(f *Frame) (FrameVerdict, error) {
	v := FrameVerdict{FrameIndex: s.i, Gesture: 5, Score: s.scores[s.i]}
	s.i++
	return v, nil
}

func (s *scriptedFront) Prepare()     {}
func (s *scriptedFront) Close() error { return nil }

// scriptedInner fakes the cascade's inner stream, counting inference,
// prepare and observe-only calls; every inference verdict is unsafe in
// context 3.
type scriptedInner struct{ pushes, prepares, observes int }

func (s *scriptedInner) Push(*Frame) FrameVerdict {
	s.pushes++
	return FrameVerdict{Gesture: 3, Score: 0.9, Unsafe: true}
}
func (s *scriptedInner) Prepare()       { s.prepares++ }
func (s *scriptedInner) Observe(*Frame) { s.observes++ }

// TestCascadeArmHoldoff pins the gating semantics: a front score at or
// above the arm threshold runs the inner detector for holdoff frames,
// further suspicious frames refresh the counter, and disarmed frames only
// observe.
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
}

// TestCascadePrepareOnlyWhileArmed pins where the cascade forwards
// Prepare: to the inner stream only while it is armed, since then the
// next frame runs the inner Push whatever the front scores. A disarmed
// cascade prepares nothing, even when the next frame arms it (f6 below):
// that Push runs the prefix itself.
func TestCascadePrepareOnlyWhileArmed(t *testing.T) {
	scores := []float64{0.1, 0.6, 0.1, 0.1, 0.1, 0.1, 0.7, 0.8, 0.1, 0.1, 0.1, 0.1}
	inner := &scriptedInner{}
	s := &cascadeSession{front: &scriptedFront{scores: scores}, inner: inner, arm: 0.5, holdoff: 3}
	// Per frame: whether the inner stream runs the next frame's Push
	// whatever the front scores (f1 arms f1..f3, f6 and f7 arm f6..f9).
	wantPrepare := []bool{false, true, true, false, false, false, true, true, true, false, false, false}
	for i := range scores {
		if _, err := s.Push(&Frame{}); err != nil {
			t.Fatalf("frame %d: %v", i, err)
		}
		before := inner.prepares
		s.Prepare()
		if got := inner.prepares > before; got != wantPrepare[i] {
			t.Errorf("after frame %d: Prepare reached the inner stream = %v, want %v (armed %d)", i, got, wantPrepare[i], s.armed)
		}
	}
}

// TestCascadeRunSessionEquivalence checks that a session reproduces
// Run's verdicts exactly on every test trajectory, a fresh session each.
func TestCascadeRunSessionEquivalence(t *testing.T) {
	det := fittedDetector(t, "cascade")
	for ti, traj := range testFold(t).Test {
		run, err := det.Run(context.Background(), traj)
		if err != nil {
			t.Fatalf("run traj %d: %v", ti, err)
		}
		sess, err := det.NewSession(WithSessionLabels(traj.Gestures))
		if err != nil {
			t.Fatal(err)
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
		sess.Close()
	}
}

// TestCascadeValidation covers the refusal of cascade artifacts saved
// with other stages or gating than the fixed composition, and the
// unfitted session error.
func TestCascadeValidation(t *testing.T) {
	art := saveArtifact(t, fittedDetector(t, "cascade"))
	for name, edit := range map[string]func(*cascadePayload){
		"front stage":  func(p *cascadePayload) { p.FrontName = "sdsdl" },
		"inner stage":  func(p *cascadePayload) { p.InnerName = "lookahead" },
		"config front": func(p *cascadePayload) { p.Config.CascadeFront = "sdsdl" },
		"config inner": func(p *cascadePayload) { p.Config.CascadeInner = "monolithic" },
		"arm":          func(p *cascadePayload) { p.Config.CascadeArm = 0.05 },
		"holdoff":      func(p *cascadePayload) { p.Config.CascadeHoldoff = 10 },
	} {
		t.Run(name, func(t *testing.T) {
			_, err := LoadDetector(bytes.NewReader(rewriteArtifact(t, art, &cascadePayload{}, edit)))
			var ae *ArtifactError
			if !errors.As(err, &ae) || !errors.Is(err, ErrCorruptPayload) {
				t.Fatalf("LoadDetector = %v, want an *ArtifactError wrapping ErrCorruptPayload", err)
			}
		})
	}
	// The fixed stages and gating, written out, load like the defaults.
	explicit := rewriteArtifact(t, art, &cascadePayload{}, func(p *cascadePayload) {
		p.Config.CascadeFront, p.Config.CascadeInner = "envelope", "context-aware"
		p.Config.CascadeArm, p.Config.CascadeHoldoff = cascadeArm, cascadeHoldoff
	})
	if _, err := LoadDetector(bytes.NewReader(explicit)); err != nil {
		t.Errorf("artifact naming the fixed stages and gating: %v", err)
	}

	det, err := Open("cascade")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := det.NewSession(); !errors.Is(err, ErrNotFitted) {
		t.Errorf("unfitted cascade NewSession error = %v, want ErrNotFitted", err)
	}
}
