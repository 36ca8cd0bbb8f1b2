// Command monitor trains a safety-monitoring backend on synthetic
// demonstrations, then streams a held-out demonstration through it frame by
// frame, printing alerts as they fire — the online deployment scenario of
// the paper's Figure 4. The detection backend is selected by name from the
// safemon registry.
//
// Usage:
//
//	monitor -task suturing -demos 24
//	monitor -task blocktransfer -threshold 0.6
//	monitor -backend lookahead -workers 4
//	monitor -backend envelope -threshold 0.2
//	monitor -model-dir ./models -backend envelope   # serve a saved artifact
//
// With -model-dir the backend is reconstructed from the store's latest
// versioned artifact (safemon.LoadDetector path, as safemond does) instead
// of being refit on every run — the artifact must have been trained for
// the selected task's feature layout (see `safemond -train-only`).
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"strings"
	"time"

	"repro/internal/dataset"
	"repro/internal/gesture"
	"repro/internal/stats"
	"repro/internal/synth"
	"repro/safemon"
	"repro/safemon/modelstore"
)

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "monitor:", err)
		os.Exit(1)
	}
}

func run(args []string) error {
	fs := flag.NewFlagSet("monitor", flag.ContinueOnError)
	taskName := fs.String("task", "suturing", "task: suturing or blocktransfer")
	backend := fs.String("backend", "context-aware",
		"detection backend: "+strings.Join(safemon.Backends(), ", "))
	demos := fs.Int("demos", 24, "number of demonstrations (last LOSO trial held out)")
	seed := fs.Int64("seed", 1, "deterministic seed")
	threshold := fs.Float64("threshold", 0.5, "unsafe-score alert threshold")
	groundTruth := fs.Bool("perfect", false, "use ground-truth gesture boundaries")
	workers := fs.Int("workers", 1,
		"evaluation workers (0 = GOMAXPROCS; >1 inflates the compute-time figure with scheduling contention)")
	modelDir := fs.String("model-dir", "",
		"versioned model store; load the backend's latest artifact instead of fitting (parity with safemond)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	ctx := context.Background()

	task := gesture.Suturing
	opts := []safemon.Option{
		safemon.WithThreshold(*threshold),
		safemon.WithSeed(*seed),
		safemon.WithTiming(),
	}
	if strings.EqualFold(*taskName, "blocktransfer") {
		task = gesture.BlockTransfer
		opts = append(opts,
			safemon.WithFeatures(safemon.CG()),
			safemon.WithErrorFeatures(safemon.CG()),
			safemon.WithWindow(10))
	}
	if *groundTruth {
		opts = append(opts, safemon.WithGroundTruthContext())
	}

	// Model acquisition mirrors safemond: artifacts when -model-dir is
	// set (millisecond load, zero Fit), in-process training otherwise.
	var det safemon.Detector
	var err error
	loaded := false
	if *modelDir != "" {
		store, err := modelstore.Open(*modelDir)
		if err != nil {
			return err
		}
		start := time.Now()
		var m *modelstore.Manifest
		det, m, err = store.Load(*backend, "")
		if err != nil {
			return fmt.Errorf("load %s from %s: %w", *backend, *modelDir, err)
		}
		loaded = true
		fmt.Fprintf(os.Stderr, "loaded %s model %s from %s in %s (no training)\n",
			*backend, m.Version, *modelDir, time.Since(start).Round(time.Millisecond))
		// The artifact carries its own training configuration; the
		// detector-shaping flags only apply to the fit path.
		fmt.Fprintf(os.Stderr, "note: -threshold/-perfect/-seed and per-task feature options come from the artifact; "+
			"compute-time reporting is off on the artifact path\n")
	} else {
		det, err = safemon.Open(*backend, opts...)
		if err != nil {
			return err
		}
	}

	fmt.Fprintf(os.Stderr, "generating %d %v demonstrations...\n", *demos, task)
	set, err := synth.Generate(synth.Config{
		Task: task, Hz: 30, Seed: *seed,
		NumDemos: *demos, NumTrials: 4, Subjects: 4, DurationScale: 0.6,
	})
	if err != nil {
		return err
	}
	folds := dataset.LOSO(synth.Trajectories(set))
	fold := folds[len(folds)-1]

	if !loaded {
		fmt.Fprintf(os.Stderr, "fitting %s backend on %d demos...\n", *backend, len(fold.Train))
		if err := det.Fit(ctx, fold.Train); err != nil {
			return err
		}
	}

	target := fold.Test[0]
	for _, tr := range fold.Test {
		if tr.UnsafeFraction() > 0 {
			target = tr
			break
		}
	}
	fmt.Fprintf(os.Stderr, "streaming a held-out demonstration (%d frames, %.0f%% unsafe)...\n",
		target.Len(), 100*target.UnsafeFraction())

	var sessOpts []safemon.SessionOption
	if *groundTruth {
		sessOpts = append(sessOpts, safemon.WithSessionLabels(target.Gestures))
	}
	sess, err := det.NewSession(sessOpts...)
	if err != nil {
		return err
	}
	defer sess.Close()
	inAlert := false
	alerts := 0
	for i := range target.Frames {
		v, err := sess.Push(&target.Frames[i])
		if err != nil {
			return err
		}
		if v.Unsafe && !inAlert {
			alerts++
			fmt.Printf("t=%6.2fs  ALERT  context=%-4s score=%.2f (ground truth: gesture=%s unsafe=%v)\n",
				float64(i)/target.HzRate, gesture.Gesture(v.Gesture), v.Score,
				gesture.Gesture(target.Gestures[i]), target.Unsafe[i])
		}
		inAlert = v.Unsafe
	}

	runner := &safemon.Runner{Detector: det, Workers: *workers}
	rep, err := runner.Run(ctx, fold.Test, nil)
	if err != nil {
		return err
	}
	fmt.Printf("\n%d alert episodes on the streamed demo\n", alerts)
	fmt.Printf("held-out fold (%s): AUC %.3f, F1 %.3f, mean reaction %+.0f ms, early %.1f%%, compute %.3f ms/frame\n",
		*backend, rep.AUC, rep.F1, stats.Mean(rep.ReactionTimesMS), rep.EarlyDetectionPct, rep.ComputeTimeMS)
	return nil
}
