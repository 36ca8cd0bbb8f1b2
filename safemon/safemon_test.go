package safemon

import (
	"context"
	"sync"
	"testing"

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
	chain := &MarkovChain{}
	verbose := func(string) {}
	cfg := newConfig([]Option{
		WithThreshold(0.7),
		WithGroundTruthContext(),
		WithLookahead(chain),
		WithFeatures(CG()),
		WithErrorFeatures(CRG()),
		WithWindow(10),
		WithArch(ArchLSTM),
		WithEpochs(4),
		WithTrainStride(5),
		WithSeed(99),
		WithEnvelopeMargin(1.5),
		WithAtoms(32),
		WithSkipLag(7),
		WithTiming(),
		WithVerbose(verbose),
	})
	if cfg.Threshold != 0.7 || !cfg.GroundTruthContext || !cfg.Lookahead || cfg.Chain != chain {
		t.Errorf("core options not applied: %+v", cfg)
	}
	if cfg.GestureFeatures.Dim() != CG().Dim() || cfg.ErrorFeatures.Dim() != CRG().Dim() {
		t.Errorf("feature options not applied")
	}
	if cfg.Window != 10 || cfg.Arch != ArchLSTM || cfg.Epochs != 4 || cfg.TrainStride != 5 || cfg.Seed != 99 {
		t.Errorf("training options not applied: %+v", cfg)
	}
	if cfg.EnvelopeMargin != 1.5 || cfg.Atoms != 32 || cfg.SkipLag != 7 || !cfg.Timing || cfg.Verbose == nil {
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
	la := New(WithLookahead(nil))
	if la.Info().Name != "lookahead" {
		t.Errorf("New with lookahead = %+v", la.Info())
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
// streaming session produces exactly the verdicts of the batch Run, and
// that a Reset session reproduces them again.
func TestSessionRunEquivalence(t *testing.T) {
	fold := testFold(t)
	traj := fold.Test[0]
	ctx := context.Background()
	for _, backend := range []string{"context-aware", "lookahead", "monolithic", "envelope", "skipchain", "sdsdl"} {
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
			for pass := 0; pass < 2; pass++ { // second pass exercises Reset
				for i := range traj.Frames {
					v, err := sess.Push(&traj.Frames[i])
					if err != nil {
						t.Fatal(err)
					}
					if v != trace.Verdicts[i] {
						t.Fatalf("pass %d frame %d: session %+v vs run %+v", pass, i, v, trace.Verdicts[i])
					}
				}
				if err := sess.Reset(traj.Gestures); err != nil {
					t.Fatal(err)
				}
			}
		})
	}
}

func TestWatchChannelMode(t *testing.T) {
	det := fittedDetector(t, "envelope")
	traj := testFold(t).Test[0]
	ref, err := det.Run(context.Background(), traj)
	if err != nil {
		t.Fatal(err)
	}

	sess, err := det.NewSession()
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	in := make(chan *Frame)
	out := Watch(ctx, sess, in)
	go func() {
		defer close(in)
		for i := range traj.Frames {
			in <- &traj.Frames[i]
		}
	}()
	n := 0
	for sv := range out {
		if sv.Err != nil {
			t.Fatal(sv.Err)
		}
		if sv.Verdict.Score != ref.Verdicts[n].Score {
			t.Fatalf("frame %d: watch score %v vs run %v", n, sv.Verdict.Score, ref.Verdicts[n].Score)
		}
		n++
	}
	if n != traj.Len() {
		t.Fatalf("watched %d verdicts, want %d", n, traj.Len())
	}

	// Cancellation closes the stream.
	sess2, err := det.NewSession()
	if err != nil {
		t.Fatal(err)
	}
	ctx2, cancel2 := context.WithCancel(context.Background())
	in2 := make(chan *Frame)
	out2 := Watch(ctx2, sess2, in2)
	cancel2()
	for range out2 {
	}
}
