package safemon

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"reflect"
	"testing"
)

// TestRunnerDeterminism is the acceptance check for the concurrent batch
// path: a 4-worker Runner must yield a report byte-identical to the
// sequential one on the same test set.
func TestRunnerDeterminism(t *testing.T) {
	fold := testFold(t)
	ctx := context.Background()
	for _, backend := range []string{"context-aware", "envelope", "skipchain"} {
		t.Run(backend, func(t *testing.T) {
			det := fittedDetector(t, backend)
			seq, err := (&Runner{Detector: det, Workers: 1}).Run(ctx, fold.Test, nil)
			if err != nil {
				t.Fatal(err)
			}
			par, err := (&Runner{Detector: det, Workers: 4}).Run(ctx, fold.Test, nil)
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(seq, par) {
				t.Fatalf("concurrent report differs from sequential:\nseq: %+v\npar: %+v", seq, par)
			}
			seqB, err := json.Marshal(seq)
			if err != nil {
				t.Fatal(err)
			}
			parB, err := json.Marshal(par)
			if err != nil {
				t.Fatal(err)
			}
			if string(seqB) != string(parB) {
				t.Fatalf("serialized reports differ")
			}
			// Repeat runs are reproducible too.
			again, err := (&Runner{Detector: det, Workers: 4}).Run(ctx, fold.Test, nil)
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(par, again) {
				t.Fatal("repeated concurrent run differs")
			}
		})
	}
}

// TestRunnerMatchesDetectorRun checks trace alignment: Traces()[i] equals
// Detector.Run on trajs[i] regardless of scheduling.
func TestRunnerMatchesDetectorRun(t *testing.T) {
	fold := testFold(t)
	ctx := context.Background()
	det := fittedDetector(t, "monolithic")
	traces, err := (&Runner{Detector: det, Workers: 3}).Traces(ctx, fold.Test)
	if err != nil {
		t.Fatal(err)
	}
	for i, traj := range fold.Test {
		ref, err := det.Run(ctx, traj)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(ref.Verdicts, traces[i].Verdicts) {
			t.Fatalf("trace %d differs between Runner and Run", i)
		}
	}
}

func TestRunnerCancellation(t *testing.T) {
	fold := testFold(t)
	det := fittedDetector(t, "envelope")
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := (&Runner{Detector: det, Workers: 2}).Run(ctx, fold.Test, nil); err == nil {
		t.Fatal("cancelled runner should fail")
	}
}

// poisonErr is the sentinel a poisonDetector session fails with.
var poisonErr = errors.New("poisoned frame")

// poisonDetector fails any push whose frame's first feature matches the
// poison marker, letting tests fail exactly one trajectory of a batch.
type poisonDetector struct{ marker float64 }

func (d *poisonDetector) Info() Info                               { return Info{Name: "poison", Threshold: 0.5} }
func (d *poisonDetector) Fit(context.Context, []*Trajectory) error { return nil }
func (d *poisonDetector) Save(io.Writer) error                     { return errors.New("poison: not serializable") }
func (d *poisonDetector) Load(io.Reader) error                     { return errors.New("poison: not serializable") }
func (d *poisonDetector) NewSession(...SessionOption) (Session, error) {
	return &poisonSession{marker: d.marker}, nil
}

func (d *poisonDetector) Run(ctx context.Context, traj *Trajectory) (*Trace, error) {
	return runViaSession(ctx, d, traj, false)
}

type poisonSession struct {
	marker float64
	idx    int
}

func (s *poisonSession) Push(f *Frame) (FrameVerdict, error) {
	if f[0] == s.marker {
		return FrameVerdict{}, poisonErr
	}
	v := FrameVerdict{FrameIndex: s.idx}
	s.idx++
	return v, nil
}

func (s *poisonSession) Prepare()     {}
func (s *poisonSession) Close() error { return nil }

// TestRunnerTrajectoryError pins the error contract of Traces/Run: the
// first worker failure must surface as a *TrajectoryError carrying the
// index of the offending trajectory (recoverable via errors.As), with the
// root cause reachable through errors.Is — on both the sequential and the
// concurrent path.
func TestRunnerTrajectoryError(t *testing.T) {
	const failIdx = 3
	trajs := make([]*Trajectory, 6)
	for i := range trajs {
		tr := &Trajectory{HzRate: 30}
		for j := 0; j < 50; j++ {
			var f Frame
			if i == failIdx {
				f[0] = 1 // poison marker
			}
			tr.Frames = append(tr.Frames, f)
		}
		trajs[i] = tr
	}
	det := &poisonDetector{marker: 1}

	for _, workers := range []int{1, 4} {
		t.Run(fmt.Sprintf("workers=%d", workers), func(t *testing.T) {
			_, err := (&Runner{Detector: det, Workers: workers}).Traces(context.Background(), trajs)
			if err == nil {
				t.Fatal("poisoned batch should fail")
			}
			var te *TrajectoryError
			if !errors.As(err, &te) {
				t.Fatalf("error %v (%T) is not a *TrajectoryError", err, err)
			}
			if te.Index != failIdx {
				t.Errorf("TrajectoryError.Index = %d, want %d", te.Index, failIdx)
			}
			if !errors.Is(err, poisonErr) {
				t.Errorf("root cause not reachable through %v", err)
			}
		})
	}
}

func TestRunnerReportsGestureAccuracy(t *testing.T) {
	fold := testFold(t)
	det := fittedDetector(t, "context-aware")
	rep, err := (&Runner{Detector: det, Workers: 2}).Run(context.Background(), fold.Test, nil)
	if err != nil {
		t.Fatal(err)
	}
	if rep.GestureAccuracy <= 0 {
		t.Errorf("context-predicting backend should report gesture accuracy, got %v", rep.GestureAccuracy)
	}
	if len(rep.PerDemoAUC) != len(fold.Test) {
		t.Errorf("PerDemoAUC has %d entries for %d demos", len(rep.PerDemoAUC), len(fold.Test))
	}
}
