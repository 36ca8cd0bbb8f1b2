package safemon

import (
	"context"
	"math"
	"sync"
	"testing"

	"repro/internal/core"
	"repro/internal/dataset"
	"repro/internal/gesture"
	"repro/internal/synth"
)

// testFold lazily builds one small labeled Suturing fold shared by every
// test in the package.
var foldFixture struct {
	once sync.Once
	fold dataset.LOSOSplit
	err  error
}

func testFold(t testing.TB) dataset.LOSOSplit {
	t.Helper()
	foldFixture.once.Do(func() {
		demos, err := synth.Generate(synth.Config{
			Task: gesture.Suturing, Hz: 30, Seed: 17,
			NumDemos: 8, NumTrials: 2, Subjects: 2, DurationScale: 0.35,
		})
		if err != nil {
			foldFixture.err = err
			return
		}
		foldFixture.fold = dataset.LOSO(synth.Trajectories(demos))[0]
	})
	if foldFixture.err != nil {
		t.Fatal(foldFixture.err)
	}
	return foldFixture.fold
}

// quickOptions returns per-backend options that keep test fits fast while
// exercising the real training paths.
func quickOptions(backend string) []Option {
	switch backend {
	case "context-aware", "lookahead", "monolithic":
		return []Option{WithEpochs(2), WithTrainStride(6), WithSeed(3)}
	case "cascade":
		return []Option{WithEpochs(2), WithTrainStride(6), WithSeed(3)}
	case "sdsdl":
		return []Option{WithThreshold(0.2), WithAtoms(16), WithSeed(3)}
	default: // envelope, skipchain
		return []Option{WithThreshold(0.2), WithSeed(3)}
	}
}

// fitted lazily fits one detector per backend on the shared fold.
var fittedFixture struct {
	mu sync.Mutex
	m  map[string]Detector
}

func fittedDetector(t testing.TB, backend string) Detector {
	t.Helper()
	fold := testFold(t)
	fittedFixture.mu.Lock()
	defer fittedFixture.mu.Unlock()
	if d, ok := fittedFixture.m[backend]; ok {
		return d
	}
	det, err := Open(backend, quickOptions(backend)...)
	if err != nil {
		t.Fatal(err)
	}
	if err := det.Fit(context.Background(), fold.Train); err != nil {
		t.Fatalf("fit %s: %v", backend, err)
	}
	if fittedFixture.m == nil {
		fittedFixture.m = map[string]Detector{}
	}
	fittedFixture.m[backend] = det
	return det
}

func TestRegistryRoundTrip(t *testing.T) {
	want := []string{"cascade", "context-aware", "envelope", "lookahead", "monolithic", "sdsdl", "skipchain"}
	have := map[string]bool{}
	for _, name := range Backends() {
		have[name] = true
	}
	for _, name := range want {
		if !have[name] {
			t.Errorf("backend %q not registered (have %v)", name, Backends())
		}
	}
	for _, name := range want {
		det, err := Open(name)
		if err != nil {
			t.Fatalf("Open(%q): %v", name, err)
		}
		if got := det.Info().Name; got != name {
			t.Errorf("Open(%q).Info().Name = %q", name, got)
		}
	}
	if _, err := Open("no-such-backend"); err == nil {
		t.Error("Open of unknown backend should fail")
	}

	// Registering a custom backend makes it openable; duplicates panic.
	Register("custom-test", func(cfg Config) Detector { return newDetector("envelope", cfg, fitEnvelope, decodeEnvelope) })
	if det, err := Open("custom-test", WithThreshold(0.9)); err != nil {
		t.Fatalf("Open custom backend: %v", err)
	} else if det.Info().Threshold != 0.9 {
		t.Errorf("custom backend threshold = %v, want 0.9", det.Info().Threshold)
	}
	func() {
		defer func() {
			if recover() == nil {
				t.Error("duplicate Register should panic")
			}
		}()
		Register("custom-test", func(cfg Config) Detector { return newDetector("envelope", cfg, fitEnvelope, decodeEnvelope) })
	}()
}

func TestOptionApplication(t *testing.T) {
	cfg := newConfig([]Option{
		WithThreshold(0.7),
		WithGroundTruthContext(),
		WithFeatures(CG()),
		WithErrorFeatures(CRG()),
		WithWindow(10),
		WithArch(ArchLSTM),
		WithEpochs(4),
		WithTrainStride(5),
		WithSeed(99),
		WithAtoms(32),
		WithTiming(),
	})
	if cfg.Threshold != 0.7 || !cfg.GroundTruthContext {
		t.Errorf("core options not applied: %+v", cfg)
	}
	if cfg.GestureFeatures.Dim() != CG().Dim() || cfg.ErrorFeatures.Dim() != CRG().Dim() {
		t.Errorf("feature options not applied")
	}
	if cfg.Window != 10 || cfg.Arch != ArchLSTM || cfg.Epochs != 4 || cfg.TrainStride != 5 || cfg.Seed != 99 {
		t.Errorf("training options not applied: %+v", cfg)
	}
	if cfg.Atoms != 32 || !cfg.Timing {
		t.Errorf("backend options not applied: %+v", cfg)
	}

	// Defaults.
	def := newConfig(nil)
	if def.Threshold != 0.5 || def.Seed != 1 || def.GroundTruthContext || def.Lookahead {
		t.Errorf("bad defaults: %+v", def)
	}

	// Options flow into the built detector's Info.
	det := New(WithThreshold(0.7), WithGroundTruthContext())
	info := det.Info()
	if info.Name != "context-aware" || info.Threshold != 0.7 || info.PredictsContext {
		t.Errorf("New Info = %+v", info)
	}
}

func TestUnfittedErrors(t *testing.T) {
	for _, name := range Backends() {
		det, err := Open(name)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := det.NewSession(); err == nil {
			t.Errorf("%s: NewSession before Fit should fail", name)
		}
		if _, err := det.Run(context.Background(), testFold(t).Test[0]); err == nil {
			t.Errorf("%s: Run before Fit should fail", name)
		}
	}
}

// TestSessionRunEquivalence verifies that for every backend a manual
// streaming session produces exactly the verdicts of the batch Run.
func TestSessionRunEquivalence(t *testing.T) {
	fold := testFold(t)
	traj := fold.Test[0]
	ctx := context.Background()
	for _, backend := range Backends() {
		t.Run(backend, func(t *testing.T) {
			det := fittedDetector(t, backend)
			trace, err := det.Run(ctx, traj)
			if err != nil {
				t.Fatal(err)
			}
			if len(trace.Verdicts) != traj.Len() {
				t.Fatalf("trace has %d verdicts for %d frames", len(trace.Verdicts), traj.Len())
			}
			sess, err := det.NewSession(WithSessionLabels(traj.Gestures))
			if err != nil {
				t.Fatal(err)
			}
			defer sess.Close()
			for i := range traj.Frames {
				v, err := sess.Push(&traj.Frames[i])
				if err != nil {
					t.Fatal(err)
				}
				if v != trace.Verdicts[i] {
					t.Fatalf("frame %d: session %+v vs run %+v", i, v, trace.Verdicts[i])
				}
			}
		})
	}
}

// TestNonFiniteFramesAreUnsafe pins the fail-safe verdict on frames the
// monitor cannot measure: 40 all-NaN frames and 40 all-+Inf frames,
// pushed through a fresh session and run offline, get no safe verdict on
// any backend.
func TestNonFiniteFramesAreUnsafe(t *testing.T) {
	labels := testFold(t).Test[0].Gestures[:40]
	ctx := context.Background()
	for _, backend := range Backends() {
		t.Run(backend, func(t *testing.T) {
			det := fittedDetector(t, backend)
			for _, value := range []float64{math.NaN(), math.Inf(1)} {
				traj := &Trajectory{Frames: make([]Frame, len(labels)), Gestures: labels}
				for i := range traj.Frames {
					for k := range traj.Frames[i] {
						traj.Frames[i][k] = value
					}
				}
				sess, err := det.NewSession(WithSessionLabels(labels))
				if err != nil {
					t.Fatal(err)
				}
				for i := range traj.Frames {
					v, err := sess.Push(&traj.Frames[i])
					if err != nil {
						t.Fatal(err)
					}
					if !v.Unsafe {
						t.Fatalf("%v frame %d: session verdict %+v is safe", value, i, v)
					}
				}
				sess.Close()
				trace, err := det.Run(ctx, traj)
				if err != nil {
					t.Fatal(err)
				}
				for _, v := range trace.Verdicts {
					if !v.Unsafe {
						t.Fatalf("%v frame %d: Run verdict %+v is safe", value, v.FrameIndex, v)
					}
				}
			}
			if mon := monitorOf(det); mon != nil {
				checkNonFiniteRow(t, det, mon)
			}
		})
	}
}

// monitorOf returns the two-stage monitor behind an nn-backed detector
// (the cascade's inner one), or nil for the other backends.
func monitorOf(det Detector) *core.Monitor {
	m := det.(*detector).m
	if c, ok := m.(cascadeModel); ok {
		m = c.inner.m
	}
	if c, ok := m.(contextModel); ok {
		return c.mon
	}
	return nil
}

// checkNonFiniteRow puts one non-finite frame inside a real trajectory:
// all NaN, all +Inf, or one +Inf or -Inf value among finite ones. A lone
// infinite input saturates the LSTM gates instead of making them NaN, so
// only the monitor's window check keeps those verdicts unsafe. Every
// verdict whose gesture or error window still holds that row must be
// unsafe, in a session and in Run. From frame at+Window on, no window
// holds it, so a session and Run must answer exactly as they do on the
// clean trajectory (except the cascade, whose front keeps the inner stage
// armed for its hold-off).
func checkNonFiniteRow(t *testing.T, det Detector, mon *core.Monitor) {
	t.Helper()
	clean := testFold(t).Test[0]
	window := mon.Errors.Config.Window
	if mon.Gestures != nil && !mon.UseGroundTruthGestures {
		window = max(window, mon.Gestures.Config.Window)
	}
	at := len(clean.Frames) / 2
	_, cascade := det.(*detector).m.(cascadeModel)
	push := func(traj *Trajectory) []FrameVerdict {
		sess, err := det.NewSession(WithSessionLabels(traj.Gestures))
		if err != nil {
			t.Fatal(err)
		}
		defer sess.Close()
		out := make([]FrameVerdict, len(traj.Frames))
		for i := range traj.Frames {
			if out[i], err = sess.Push(&traj.Frames[i]); err != nil {
				t.Fatal(err)
			}
		}
		return out
	}
	run := func(traj *Trajectory) []FrameVerdict {
		trace, err := det.Run(context.Background(), traj)
		if err != nil {
			t.Fatal(err)
		}
		return trace.Verdicts
	}
	rows := []struct {
		name  string
		value float64
		all   bool
	}{
		{"all NaN", math.NaN(), true},
		{"all +Inf", math.Inf(1), true},
		{"one +Inf", math.Inf(1), false},
		{"one -Inf", math.Inf(-1), false},
	}
	for _, row := range rows {
		bad := *clean
		bad.Frames = append([]Frame(nil), clean.Frames...)
		if row.all {
			for k := range bad.Frames[at] {
				bad.Frames[at][k] = row.value
			}
		} else {
			bad.Frames[at][0] = row.value // the left tool's x, in every feature set
		}
		for path, verdicts := range map[string]func(*Trajectory) []FrameVerdict{"session": push, "Run": run} {
			got, want := verdicts(&bad), verdicts(clean)
			for i := at; i < at+window; i++ {
				if !got[i].Unsafe {
					t.Errorf("%s at frame %d: %s verdict %+v at frame %d is safe", row.name, at, path, got[i], i)
				}
			}
			for i := at + window; i < len(got) && !cascade; i++ {
				if got[i] != want[i] {
					t.Errorf("%s at frame %d: %s verdict %+v at frame %d, want the clean trajectory's %+v",
						row.name, at, path, got[i], i, want[i])
				}
			}
		}
	}
}
