package dataset

import (
	"math/rand"
	"reflect"
	"testing"
	"testing/quick"

	"repro/internal/kinematics"
)

func makeTraj(n, trial int) *kinematics.Trajectory {
	tr := &kinematics.Trajectory{HzRate: 30, Trial: trial}
	for i := 0; i < n; i++ {
		var f kinematics.Frame
		f.SetCartesian(kinematics.Left, float64(i), 0, 0)
		tr.Frames = append(tr.Frames, f)
		tr.Gestures = append(tr.Gestures, 1+i%3)
		tr.Unsafe = append(tr.Unsafe, i%5 == 0)
	}
	return tr
}

func TestSlideTrajectoryShapes(t *testing.T) {
	tr := makeTraj(20, 0)
	ws, err := SlideTrajectory(tr, 3, Config{Features: kinematics.CG(), Size: 5, Stride: 2})
	if err != nil {
		t.Fatal(err)
	}
	// windows end at frames 4,6,8,...,18 -> 8 windows
	if len(ws) != 8 {
		t.Fatalf("got %d windows, want 8", len(ws))
	}
	for _, w := range ws {
		if len(w.X) != 5 || len(w.X[0]) != kinematics.CG().Dim() {
			t.Fatalf("window shape [%d][%d]", len(w.X), len(w.X[0]))
		}
		if w.TrajIndex != 3 {
			t.Fatalf("traj index %d", w.TrajIndex)
		}
		if w.Gesture != tr.Gestures[w.FrameIndex] || w.Unsafe != tr.Unsafe[w.FrameIndex] {
			t.Fatal("labels not taken from final frame")
		}
	}
}

func TestSlideRejectsBadConfig(t *testing.T) {
	tr := makeTraj(10, 0)
	if _, err := SlideTrajectory(tr, 0, Config{Features: kinematics.CG(), Size: 0, Stride: 1}); err == nil {
		t.Error("expected ErrBadWindow")
	}
	if _, err := SlideTrajectory(tr, 0, Config{Features: kinematics.CG(), Size: 5, Stride: 0}); err == nil {
		t.Error("expected ErrBadWindow")
	}
}

func TestSlideShortTrajectory(t *testing.T) {
	tr := makeTraj(3, 0)
	ws, err := SlideTrajectory(tr, 0, Config{Features: kinematics.CG(), Size: 5, Stride: 1})
	if err != nil {
		t.Fatal(err)
	}
	if len(ws) != 0 {
		t.Errorf("short trajectory yielded %d windows", len(ws))
	}
}

func TestSlideWindowCountProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 5 + rng.Intn(100)
		size := 1 + rng.Intn(10)
		stride := 1 + rng.Intn(5)
		tr := makeTraj(n, 0)
		ws, err := SlideTrajectory(tr, 0, Config{Features: kinematics.CG(), Size: size, Stride: stride})
		if err != nil {
			return false
		}
		want := 0
		if n >= size {
			want = (n-size)/stride + 1
		}
		return len(ws) == want
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

func TestLOSOFolds(t *testing.T) {
	var trajs []*kinematics.Trajectory
	for trial := 0; trial < 5; trial++ {
		for k := 0; k < 3; k++ {
			trajs = append(trajs, makeTraj(10, trial))
		}
	}
	folds := LOSO(trajs)
	if len(folds) != 5 {
		t.Fatalf("got %d folds, want 5", len(folds))
	}
	for _, fold := range folds {
		if len(fold.Test) != 3 || len(fold.Train) != 12 {
			t.Errorf("fold %d sizes: train %d test %d", fold.Trial, len(fold.Train), len(fold.Test))
		}
		for _, tr := range fold.Test {
			if tr.Trial != fold.Trial {
				t.Error("test trajectory from wrong trial")
			}
		}
		for _, tr := range fold.Train {
			if tr.Trial == fold.Trial {
				t.Error("held-out trial leaked into training")
			}
		}
	}
}

func TestByGestureAndCounts(t *testing.T) {
	tr := makeTraj(30, 0)
	ws, _ := SlideTrajectory(tr, 0, Config{Features: kinematics.CG(), Size: 1, Stride: 1})
	byG := ByGesture(ws)
	total := 0
	for _, group := range byG {
		total += len(group)
	}
	if total != len(ws) {
		t.Errorf("grouping lost windows: %d vs %d", total, len(ws))
	}
	if CountUnsafe(ws) != 6 { // frames 0,5,10,15,20,25
		t.Errorf("unsafe count %d, want 6", CountUnsafe(ws))
	}
}

func TestHoldoutSplit(t *testing.T) {
	tr := makeTraj(50, 0)
	ws, _ := SlideTrajectory(tr, 0, Config{Features: kinematics.CG(), Size: 1, Stride: 1})
	rng := rand.New(rand.NewSource(1))
	train, val := HoldoutSplit(ws, 0.2, rng)
	if len(train)+len(val) != len(ws) {
		t.Fatal("split lost windows")
	}
	if len(val) != 10 {
		t.Errorf("val size %d, want 10", len(val))
	}
	// zero fraction: everything in train
	train2, val2 := HoldoutSplit(ws, 0, rng)
	if len(val2) != 0 || len(train2) != len(ws) {
		t.Error("zero-fraction split must keep all data in train")
	}
}

func TestBalanceWeights(t *testing.T) {
	tr := makeTraj(50, 0)
	ws, _ := SlideTrajectory(tr, 0, Config{Features: kinematics.CG(), Size: 1, Stride: 1})
	safeW, unsafeW := BalanceWeights(ws)
	// 10 unsafe / 40 safe: unsafe weight must be 4x safe weight.
	if unsafeW/safeW < 3.9 || unsafeW/safeW > 4.1 {
		t.Errorf("weights safe=%v unsafe=%v", safeW, unsafeW)
	}
	// single-class data: both weights 1
	for i := range ws {
		ws[i].Unsafe = false
	}
	s2, u2 := BalanceWeights(ws)
	if s2 != 1 || u2 != 1 {
		t.Errorf("single-class weights = %v, %v", s2, u2)
	}
}

func TestFitStandardizerOnFeatures(t *testing.T) {
	trajs := []*kinematics.Trajectory{makeTraj(20, 0), makeTraj(20, 1)}
	std := FitStandardizer(trajs, kinematics.CG())
	if std.Dim() != kinematics.CG().Dim() {
		t.Errorf("standardizer dim %d", std.Dim())
	}
}

// TestFitSlideMatchesTwoCalls pins FitSlide to FitStandardizer followed by
// Slide with the fitted standardizer: the same standardizer and the same
// windows, values compared bit for bit, over trajectories of several
// lengths (one shorter than the window) and varied frames.
func TestFitSlideMatchesTwoCalls(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	var trajs []*kinematics.Trajectory
	for i, n := range []int{20, 3, 33} {
		tr := makeTraj(n, i)
		for f := range tr.Frames {
			for k := range tr.Frames[f] {
				tr.Frames[f][k] += rng.NormFloat64()
			}
		}
		trajs = append(trajs, tr)
	}
	cfg := Config{Features: kinematics.CRG(), Size: 5, Stride: 2}
	std := FitStandardizer(trajs, cfg.Features)
	want, err := Slide(trajs, Config{Features: cfg.Features, Size: cfg.Size, Stride: cfg.Stride, Standardizer: std})
	if err != nil {
		t.Fatal(err)
	}
	got, gotStd, err := FitSlide(trajs, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(gotStd, std) {
		t.Fatalf("standardizer %+v, want %+v", gotStd, std)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatal("windows differ from FitStandardizer then Slide")
	}
	if _, _, err := FitSlide(trajs, Config{Features: cfg.Features, Size: 0, Stride: 1}); err != ErrBadWindow {
		t.Errorf("FitSlide with a zero window: %v, want ErrBadWindow", err)
	}
}
