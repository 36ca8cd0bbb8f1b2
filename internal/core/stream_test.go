package core

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"repro/internal/dataset"
	"repro/internal/gesture"
	"repro/internal/kinematics"
	"repro/internal/nn"
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
	// runFrom is the first frame from which the stream's verdicts equal
	// Run's: Window-1 when the context is predicted (see Monitor.Run).
	runFrom int
}

// streamCases returns the monitors the stream tests cover: perfect
// boundaries, the same with boundary lookahead (its grammar fitted on the
// training gestures), a gesture-agnostic library, and a context predicted
// by a classifier of the default shape (12-frame window, LSTM {32, 16}),
// which streams through the LSTM projection cache.
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
	gcCfg := DefaultGestureClassifierConfig()
	gcCfg.Epochs = 1
	gcCfg.TrainStride = 6
	gc, err := TrainGestureClassifier(fold.Train, gcCfg)
	if err != nil {
		t.Fatal(err)
	}
	return []streamCase{
		{"perfect-boundaries", perfect, 0},
		{"perfect-boundaries+lookahead", &lookahead, 0},
		{"gesture-agnostic", NewMonitor(nil, mono), 0},
		{"predicted-context", NewMonitor(gc, lib), gcCfg.Window - 1},
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
// path: with ground-truth context, with boundary lookahead on top,
// gesture-agnostic, and with a predicted context, the stream's verdicts
// must equal Run's frame by frame (from the first full gesture window when
// the context is predicted).
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
				if want := trace.Verdicts[i]; i >= tc.runFrom && v != want {
					t.Fatalf("frame %d: stream %+v vs run %+v", i, v, want)
				}
			}
		})
	}
}

// TestStreamProjectionCacheExact pins the stream's cache of the gesture
// LSTM's input projections, and the prefix Prepare runs over them, to the
// uncached computation, bit for bit. Random interleavings of Observe,
// Prepare (0-2 calls), Push and fresh streams cover partial windows, full
// windows that wrap, runs of Observe longer than the window, and Pushes
// with and without a prepared prefix. After every Push, the class the
// stream reports and the logits its prefix and cached projections yield
// (ForwardLast leaves the prefix Push used in place) must equal
// Network.Forward on a copy of the gesture window. The classifiers are
// untrained: exactness does not depend on the weights, and {13} has a
// hidden width that is not a multiple of 4.
func TestStreamProjectionCacheExact(t *testing.T) {
	trajs := tinyDemos(t, 5, 4)
	lib := &ErrorLibrary{Config: DefaultErrorDetectorConfig(), GestureSpecific: true}
	for _, units := range [][]int{{32, 16}, {13}} {
		t.Run(fmt.Sprint(units), func(t *testing.T) {
			rng := rand.New(rand.NewSource(int64(units[0])))
			cfg := DefaultGestureClassifierConfig()
			cfg.LSTMUnits = units
			gc := &GestureClassifier{
				Net: nn.BuildStackedLSTM(rng, nn.StackedLSTMConfig{
					InputDim: cfg.Features.Dim(), LSTMUnits: units, DenseUnits: cfg.DenseUnits,
					NumClasses: gesture.NumClasses, Dropout: cfg.Dropout,
				}),
				Standardizer: dataset.FitStandardizer(trajs, cfg.Features),
				Config:       cfg,
			}
			mon := NewMonitor(gc, lib)
			s, err := mon.NewStream(nil)
			if err != nil {
				t.Fatal(err)
			}
			if s.gestureLSTM == nil {
				t.Fatal("the projection cache is off for an LSTM classifier")
			}
			tr, fi := 0, 0
			next := func() *kinematics.Frame {
				f := &trajs[tr].Frames[fi]
				if fi++; fi == trajs[tr].Len() {
					tr, fi = (tr+1)%len(trajs), 0
				}
				return f
			}
			window := make([][]float64, cfg.Window)
			pushes, full, prepared := 0, 0, 0
			for op := 0; op < 5000; op++ {
				switch r := rng.Float64(); {
				case r < 0.02:
					if s, err = mon.NewStream(nil); err != nil {
						t.Fatal(err)
					}
				case r < 0.05:
					for n := rng.Intn(2 * cfg.Window); n >= 0; n-- {
						s.Observe(next())
					}
				case r < 0.30:
					s.Observe(next())
				case r < 0.45:
					for n := rng.Intn(3); n > 0; n-- {
						s.Prepare()
					}
				default:
					wasPrepared := s.prepared
					v := s.Push(next())
					rows := s.gestureWin.rows
					win := window[:len(rows)]
					for i, row := range rows {
						win[i] = append(win[i][:0], row...)
					}
					want := gc.Net.Forward(win, false)
					got := s.gesturePred.ForwardLast(s.projWin.rows[len(rows)-1])
					for k := range want {
						if got[k] != want[k] {
							t.Fatalf("op %d, window of %d rows: cached logit %d = %v, uncached %v", op, len(rows), k, got[k], want[k])
						}
					}
					if c := nn.Argmax(want); v.Gesture != c {
						t.Fatalf("op %d: Push reported class %d, uncached %d", op, v.Gesture, c)
					}
					pushes++
					if len(rows) == cfg.Window {
						full++
					}
					if wasPrepared {
						prepared++
					}
				}
			}
			t.Logf("%d pushes, %d on a full window, %d prepared", pushes, full, prepared)
			if full == 0 || full == pushes || prepared == 0 || prepared == pushes {
				t.Fatal("the interleavings did not cover partial and full windows, prepared and not")
			}
		})
	}
}

// poisonHeads sets the unsafe logit's bias to NaN in every head of lib
// that pick selects (the global head is -1), and returns a function that
// restores the weights.
func poisonHeads(lib *ErrorLibrary, pick func(g int) bool) (restore func()) {
	var undo []func()
	poison := func(net *nn.Network) {
		b := net.Layers[len(net.Layers)-1].(*nn.Dense).Bias.W
		old := b[1]
		b[1] = math.NaN()
		undo = append(undo, func() { b[1] = old })
	}
	for g, net := range lib.PerGesture {
		if net != nil && pick(g) {
			poison(net)
		}
	}
	if lib.Global != nil && pick(-1) {
		poison(lib.Global)
	}
	return func() {
		for _, u := range undo {
			u()
		}
	}
}

// TestNaNScoreIsUnsafe pins the fail-safe verdict: a head whose arithmetic
// broke scores NaN, and both Run and Push must report that frame unsafe,
// whether the NaN comes from the context's head or from the lookahead
// head. Finite scores keep their verdicts.
func TestNaNScoreIsUnsafe(t *testing.T) {
	lib, mono, fold := streamFixtures(t)
	traj := fold.Test[0]
	cases := streamCases(t, lib, mono, fold)
	check := func(t *testing.T, mon *Monitor, want func(i int, v FrameVerdict) bool) {
		t.Helper()
		trace, err := mon.Run(traj)
		if err != nil {
			t.Fatal(err)
		}
		stream, err := mon.NewStream(traj.Gestures)
		if err != nil {
			t.Fatal(err)
		}
		for i := range traj.Frames {
			v := stream.Push(&traj.Frames[i])
			if !want(i, trace.Verdicts[i]) {
				t.Fatalf("frame %d: Run reported %+v", i, trace.Verdicts[i])
			}
			if !want(i, v) {
				t.Fatalf("frame %d: Push reported %+v", i, v)
			}
		}
	}
	failsSafe := func(v FrameVerdict) bool { return math.IsNaN(v.Score) && v.Unsafe }

	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			defer poisonHeads(tc.mon.Errors, func(int) bool { return true })()
			check(t, tc.mon, func(_ int, v FrameVerdict) bool { return failsSafe(v) })
		})
	}

	// Poison only the lookahead head of one context. Frames that consult
	// it must fail safe through the lookahead max; the rest keep their
	// verdicts.
	t.Run("lookahead-head", func(t *testing.T) {
		mon := cases[1].mon
		clean, err := mon.Run(traj)
		if err != nil {
			t.Fatal(err)
		}
		poisoned := 0
		for _, g := range traj.Gestures {
			if n := mon.lookahead(g); n != 0 && n != g {
				poisoned = n
				break
			}
		}
		if poisoned == 0 {
			t.Fatal("no context on this trajectory has a lookahead head")
		}
		defer poisonHeads(mon.Errors, func(g int) bool { return g == poisoned })()
		viaLookahead := 0
		check(t, mon, func(i int, v FrameVerdict) bool {
			g := traj.Gestures[i]
			if n := mon.lookahead(g); n == poisoned {
				viaLookahead++
				return failsSafe(v)
			}
			if g == poisoned {
				return failsSafe(v)
			}
			return v == clean.Verdicts[i]
		})
		if viaLookahead == 0 {
			t.Fatal("no frame consulted the poisoned lookahead head")
		}
	})
}
