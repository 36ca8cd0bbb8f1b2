// Package repro's root benchmark harness: one testing.B benchmark per
// table and figure of the paper (regenerating the experiment at Quick
// scale), plus micro-benchmarks of the monitor's hot path (per-frame
// inference latency, the "computation time" column of Table VIII) and
// ablation benches for the design choices called out in DESIGN.md §5.
//
// Run with:
//
//	go test -bench=. -benchmem
package repro

import (
	"context"
	"math/rand"
	"strconv"
	"testing"

	"repro/internal/core"
	"repro/internal/dataset"
	"repro/internal/experiments"
	"repro/internal/gesture"
	"repro/internal/kinematics"
	"repro/internal/nn"
	"repro/internal/simulator"
	"repro/internal/stats"
	"repro/internal/synth"
	"repro/internal/vision"
	"repro/safemon"
)

func benchOpts(seed int64) experiments.Options {
	return experiments.Options{Scale: experiments.Quick, Seed: seed}
}

// ---- One benchmark per table / figure ----

func BenchmarkFig3MarkovChain(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := experiments.RunFig3(benchOpts(int64(i + 1))); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFig5JSDivergence(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := experiments.RunFig5(benchOpts(int64(i + 1))); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkTable3FaultInjection(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := experiments.RunTable3(benchOpts(int64(i + 1))); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkTable4GestureClassification(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := experiments.RunTable4(benchOpts(int64(i + 1))); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkTable5SuturingAblation(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := experiments.RunTable5(benchOpts(int64(i + 1))); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkTable6BlockTransferAblation(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := experiments.RunTable6(benchOpts(int64(i + 1))); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkTable7PerGestureAUC(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := experiments.RunTable7(benchOpts(int64(i + 1))); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkTable8OverallPipeline(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := experiments.RunTable8(benchOpts(int64(i + 1))); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkTable9PerGestureTimeliness(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := experiments.RunTable9(benchOpts(int64(i + 1))); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFig8Timeline(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := experiments.RunFig8(benchOpts(int64(i + 1))); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFig9ROCSweep(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := experiments.RunFig9(benchOpts(int64(i + 1))); err != nil {
			b.Fatal(err)
		}
	}
}

// ---- Hot path: per-frame online inference latency ----

// trainedDetector fits a small safemon backend once for latency benches.
func trainedDetector(b *testing.B, backend string, opts ...safemon.Option) (safemon.Detector, dataset.LOSOSplit) {
	b.Helper()
	demos, err := synth.Generate(synth.Config{
		Task: gesture.Suturing, Hz: 30, Seed: 99,
		NumDemos: 8, NumTrials: 2, Subjects: 2, DurationScale: 0.3,
	})
	if err != nil {
		b.Fatal(err)
	}
	fold := dataset.LOSO(synth.Trajectories(demos))[0]
	opts = append([]safemon.Option{safemon.WithEpochs(2), safemon.WithTrainStride(6)}, opts...)
	det, err := safemon.Open(backend, opts...)
	if err != nil {
		b.Fatal(err)
	}
	if err := det.Fit(context.Background(), fold.Train); err != nil {
		b.Fatal(err)
	}
	return det, fold
}

// BenchmarkMonitorPerFrame measures the end-to-end per-frame streaming
// latency (Table VIII "computation time").
func BenchmarkMonitorPerFrame(b *testing.B) {
	b.ReportAllocs()
	det, fold := trainedDetector(b, "context-aware")
	traj := fold.Test[0]
	sess, err := det.NewSession()
	if err != nil {
		b.Fatal(err)
	}
	defer sess.Close()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := sess.Push(&traj.Frames[i%traj.Len()]); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkRunnerWorkers measures the batch-evaluation throughput of the
// concurrent Runner at increasing fan-out — the scale axis for future PRs.
func BenchmarkRunnerWorkers(b *testing.B) {
	b.ReportAllocs()
	det, fold := trainedDetector(b, "context-aware")
	ctx := context.Background()
	for _, workers := range []int{1, 2, 4} {
		b.Run("w"+strconv.Itoa(workers), func(b *testing.B) {
			b.ReportAllocs()
			r := &safemon.Runner{Detector: det, Workers: workers}
			for i := 0; i < b.N; i++ {
				rep, err := r.Run(ctx, fold.Test, nil)
				if err != nil {
					b.Fatal(err)
				}
				b.ReportMetric(rep.AUC, "AUC")
			}
		})
	}
}

// ---- Substrate micro-benchmarks ----

func BenchmarkLSTMForward(b *testing.B) {
	b.ReportAllocs()
	rng := rand.New(rand.NewSource(1))
	l := nn.NewLSTM(rng, 38, 64)
	x := make([][]float64, 12)
	for i := range x {
		x[i] = make([]float64, 38)
		for j := range x[i] {
			x[i][j] = rng.NormFloat64()
		}
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		l.Forward(x, false)
	}
}

func BenchmarkConv1DForward(b *testing.B) {
	b.ReportAllocs()
	rng := rand.New(rand.NewSource(2))
	c := nn.NewConv1D(rng, 26, 32, 3)
	x := make([][]float64, 10)
	for i := range x {
		x[i] = make([]float64, 26)
		for j := range x[i] {
			x[i][j] = rng.NormFloat64()
		}
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c.Forward(x, false)
	}
}

func BenchmarkSimulatorStep(b *testing.B) {
	b.ReportAllocs()
	rng := rand.New(rand.NewSource(3))
	cfg := simulator.DefaultCommandConfig()
	cfg.Hz = 1000
	commands := simulator.GenerateCommands(rng, cfg)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		w := simulator.NewWorld(rng)
		w.Run(commands, 0)
	}
}

func BenchmarkSSIM(b *testing.B) {
	b.ReportAllocs()
	rng := rand.New(rand.NewSource(4))
	w := simulator.NewWorld(rng)
	im1 := w.Render()
	im2 := w.Render()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := vision.SSIM(im1, im2); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkDTW(b *testing.B) {
	b.ReportAllocs()
	rng := rand.New(rand.NewSource(5))
	mk := func() []vision.Point2 {
		out := make([]vision.Point2, 300)
		for i := range out {
			out[i] = vision.Point2{X: rng.Float64() * 80, Y: rng.Float64() * 60}
		}
		return out
	}
	a, c := mk(), mk()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		vision.DTW(a, c)
	}
}

func BenchmarkSynthGeneration(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		_, err := synth.Generate(synth.Config{
			Task: gesture.Suturing, Hz: 30, Seed: int64(i),
			NumDemos: 4, NumTrials: 2, Subjects: 2, DurationScale: 0.5,
		})
		if err != nil {
			b.Fatal(err)
		}
	}
}

// ---- Ablation benches (DESIGN.md §5) ----

// ablationData builds one shared fold for the ablation benches.
func ablationData(b *testing.B) dataset.LOSOSplit {
	b.Helper()
	demos, err := synth.Generate(synth.Config{
		Task: gesture.Suturing, Hz: 30, Seed: 55,
		NumDemos: 10, NumTrials: 2, Subjects: 3, DurationScale: 0.35,
	})
	if err != nil {
		b.Fatal(err)
	}
	return dataset.LOSO(synth.Trajectories(demos))[0]
}

func benchTrainEval(b *testing.B, fold dataset.LOSOSplit, cfg core.ErrorDetectorConfig, specific bool) {
	b.Helper()
	cfg.Epochs = 3
	cfg.TrainStride = 4
	for i := 0; i < b.N; i++ {
		cfg.Seed = int64(i + 1)
		var lib *core.ErrorLibrary
		var err error
		if specific {
			lib, err = core.TrainErrorLibrary(fold.Train, cfg)
		} else {
			lib, err = core.TrainMonolithicDetector(fold.Train, cfg)
		}
		if err != nil {
			b.Fatal(err)
		}
		if _, auc, err := lib.OverallEval(fold.Test, 0.5); err != nil {
			b.Fatal(err)
		} else {
			b.ReportMetric(auc, "AUC")
		}
	}
}

// BenchmarkAblationContext compares gesture-specific vs monolithic
// detection (the paper's headline ablation).
func BenchmarkAblationContext(b *testing.B) {
	b.ReportAllocs()
	fold := ablationData(b)
	b.Run("gesture-specific", func(b *testing.B) {
		b.ReportAllocs()
		benchTrainEval(b, fold, core.DefaultErrorDetectorConfig(), true)
	})
	b.Run("monolithic", func(b *testing.B) {
		b.ReportAllocs()
		benchTrainEval(b, fold, core.DefaultErrorDetectorConfig(), false)
	})
}

// BenchmarkAblationArch compares 1D-CNN vs LSTM vs MLP error heads.
func BenchmarkAblationArch(b *testing.B) {
	b.ReportAllocs()
	fold := ablationData(b)
	for _, arch := range []core.ErrorArch{core.ArchConv, core.ArchLSTM, core.ArchMLP} {
		b.Run(arch.String(), func(b *testing.B) {
			b.ReportAllocs()
			cfg := core.DefaultErrorDetectorConfig()
			cfg.Arch = arch
			if arch == core.ArchLSTM {
				cfg.Units = cfg.Units[:1]
			}
			benchTrainEval(b, fold, cfg, true)
		})
	}
}

// BenchmarkAblationFeatures compares feature subsets (All vs C,R,G vs C,G).
func BenchmarkAblationFeatures(b *testing.B) {
	b.ReportAllocs()
	fold := ablationData(b)
	for _, fsSet := range []kinematics.FeatureSet{
		kinematics.AllFeatures(), kinematics.CRG(), kinematics.CG(),
	} {
		b.Run(fsSet.String(), func(b *testing.B) {
			b.ReportAllocs()
			cfg := core.DefaultErrorDetectorConfig()
			cfg.Features = fsSet
			benchTrainEval(b, fold, cfg, true)
		})
	}
}

// BenchmarkAblationWindow compares error-stage window sizes.
func BenchmarkAblationWindow(b *testing.B) {
	b.ReportAllocs()
	fold := ablationData(b)
	for _, w := range []int{3, 5, 10} {
		b.Run(windowName(w), func(b *testing.B) {
			b.ReportAllocs()
			cfg := core.DefaultErrorDetectorConfig()
			cfg.Window = w
			benchTrainEval(b, fold, cfg, true)
		})
	}
}

func windowName(w int) string { return "w" + strconv.Itoa(w) }

// BenchmarkAblationLookahead compares the base context-specific pipeline
// against the boundary-lookahead extension (DESIGN.md §5b).
func BenchmarkAblationLookahead(b *testing.B) {
	b.ReportAllocs()
	fold := ablationData(b)
	ctx := context.Background()
	for _, backend := range []string{"context-aware", "lookahead"} {
		det, err := safemon.Open(backend,
			safemon.WithEpochs(3), safemon.WithTrainStride(4))
		if err != nil {
			b.Fatal(err)
		}
		if err := det.Fit(ctx, fold.Train); err != nil {
			b.Fatal(err)
		}
		b.Run(backend, func(b *testing.B) {
			b.ReportAllocs()
			r := &safemon.Runner{Detector: det, Workers: 1}
			for i := 0; i < b.N; i++ {
				rep, err := r.Run(ctx, fold.Test, nil)
				if err != nil {
					b.Fatal(err)
				}
				b.ReportMetric(rep.AUC, "AUC")
			}
		})
	}
}

// BenchmarkAblationEnvelope measures the static-envelope baseline (global
// vs per-gesture thresholds) against the same fold.
func BenchmarkAblationEnvelope(b *testing.B) {
	b.ReportAllocs()
	fold := ablationData(b)
	ctx := context.Background()
	for _, perGesture := range []bool{false, true} {
		name := "global"
		opts := []safemon.Option{safemon.WithErrorFeatures(kinematics.CRG())}
		if perGesture {
			name = "per-gesture"
			opts = append(opts, safemon.WithGroundTruthContext())
		}
		b.Run(name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				det, err := safemon.Open("envelope", opts...)
				if err != nil {
					b.Fatal(err)
				}
				if err := det.Fit(ctx, fold.Train); err != nil {
					b.Fatal(err)
				}
				var scores []float64
				var labels []bool
				for _, tr := range fold.Test {
					trace, err := det.Run(ctx, tr)
					if err != nil {
						b.Fatal(err)
					}
					scores = append(scores, trace.Scores()...)
					for _, u := range tr.Unsafe {
						labels = append(labels, u)
					}
				}
				b.ReportMetric(stats.AUC(scores, labels), "AUC")
			}
		})
	}
}
