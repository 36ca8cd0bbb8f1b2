// Package experiments reproduces every table and figure of the paper's
// evaluation (see DESIGN.md §4 for the experiment index). Each runner is
// deterministic for a fixed seed and returns a structured result with a
// Render method producing the table in text form.
//
// Runners accept an Options value whose Scale selects between Quick (small
// synthetic datasets and models that run in seconds, used by tests and
// benchmarks) and Full (paper-scale datasets, used by cmd/experiments).
// Quick results preserve the qualitative shape of the paper's findings;
// Full results tighten the numbers.
package experiments

import (
	"fmt"

	"repro/internal/core"
	"repro/internal/dataset"
	"repro/internal/faultinject"
	"repro/internal/gesture"
	"repro/internal/kinematics"
	"repro/internal/simulator"
	"repro/internal/synth"
)

// Scale selects the experiment size.
type Scale int

// Scales.
const (
	Quick Scale = iota + 1
	Full
)

// String returns the scale name.
func (s Scale) String() string {
	if s == Full {
		return "full"
	}
	return "quick"
}

// Options configures a runner.
type Options struct {
	Scale Scale
	Seed  int64
	// Verbose receives progress lines when non-nil.
	Verbose func(string)
}

func (o Options) log(format string, args ...any) {
	if o.Verbose != nil {
		o.Verbose(fmt.Sprintf(format, args...))
	}
}

// suturingConfig returns the synthetic-JIGSAWS generation config.
func (o Options) suturingConfig() synth.Config {
	cfg := synth.DefaultSuturing(o.Seed)
	if o.Scale == Quick {
		cfg.NumDemos = 20
		cfg.NumTrials = 4
		cfg.DurationScale = 0.5
	} else {
		// Full scale keeps the paper's 39 demonstrations; durations are
		// scaled to keep pure-Go CPU training in the minutes range.
		cfg.DurationScale = 0.7
	}
	return cfg
}

// taskConfig returns the generation config for any JIGSAWS-style task.
func (o Options) taskConfig(task gesture.Task) synth.Config {
	cfg := o.suturingConfig()
	cfg.Task = task
	switch task {
	case gesture.KnotTying:
		cfg.NumDemos = 28
	case gesture.NeedlePassing:
		cfg.NumDemos = 36
	}
	if o.Scale == Quick {
		cfg.NumDemos = min(cfg.NumDemos, 16)
	}
	return cfg
}

// gestureClassifierConfig returns the stage-1 training config.
func (o Options) gestureClassifierConfig(features kinematics.FeatureSet) core.GestureClassifierConfig {
	cfg := core.DefaultGestureClassifierConfig()
	cfg.Features = features
	cfg.Seed = o.Seed
	if o.Scale == Quick {
		cfg.LSTMUnits = []int{24}
		cfg.DenseUnits = 12
		cfg.Window = 8
		cfg.Epochs = 5
		cfg.TrainStride = 4
	} else {
		cfg.LSTMUnits = []int{32, 16}
		cfg.DenseUnits = 16
		cfg.Window = 10
		cfg.Epochs = 8
		cfg.TrainStride = 4
	}
	return cfg
}

// errorDetectorConfig returns the stage-2 training config.
func (o Options) errorDetectorConfig(arch core.ErrorArch, features kinematics.FeatureSet, window int) core.ErrorDetectorConfig {
	cfg := core.DefaultErrorDetectorConfig()
	cfg.Arch = arch
	cfg.Features = features
	cfg.Window = window
	cfg.Seed = o.Seed + 7
	if o.Scale == Quick {
		cfg.Units = []int{16, 8}
		cfg.DenseUnits = 8
		cfg.Epochs = 6
		cfg.TrainStride = 3
	} else {
		cfg.Units = []int{24, 12}
		cfg.DenseUnits = 12
		cfg.Epochs = 10
		cfg.TrainStride = 3
	}
	if arch == core.ArchLSTM {
		cfg.Units = cfg.Units[:1]
	}
	return cfg
}

// suturingData generates the Suturing demonstration set and LOSO folds.
func (o Options) suturingData() ([]*synth.Demo, []dataset.LOSOSplit, error) {
	demos, err := synth.Generate(o.suturingConfig())
	if err != nil {
		return nil, nil, err
	}
	folds := dataset.LOSO(synth.Trajectories(demos))
	return demos, folds, nil
}

// blockTransferData builds the Block Transfer monitoring dataset from the
// Raven II simulator: fault-free command streams plus fault-injected runs,
// executed through the world, downsampled to monitor rate and labeled from
// the injection windows — the substitute for the paper's 115-trajectory
// simulator dataset.
func (o Options) blockTransferData() ([]*kinematics.Trajectory, [][]core.ErrorTruth, error) {
	hz := 250.0
	downsample := 8 // ~31 Hz at the monitor
	numFaultFree := 20
	numFaulty := 95
	if o.Scale == Quick {
		numFaultFree = 6
		numFaulty = 18
	}
	faultFree := simulator.CollectFaultFree(o.Seed+11, numFaultFree, 2, hz)

	grid := faultinject.Table3Grid()
	// Spread the requested number of faulty runs across the grid.
	var compact []faultinject.Bucket
	total := 0
	for i := 0; total < numFaulty; i = (i + 1) % len(grid) {
		b := grid[i]
		b.Count = 1
		compact = append(compact, b)
		total++
	}
	camp, err := faultinject.RunCampaign(compact, faultinject.CampaignConfig{
		Seed: o.Seed + 13, Demos: faultFree, KeepResults: true,
	})
	if err != nil {
		return nil, nil, err
	}

	var trajs []*kinematics.Trajectory
	var truths [][]core.ErrorTruth
	for i, tr := range faultFree {
		w := simulator.NewWorld(newRand(o.Seed + 17 + int64(i)))
		res := w.Run(tr, 0)
		ds := res.Traj.Downsample(downsample)
		ds.Trial = i % 5
		trajs = append(trajs, ds)
		truths = append(truths, nil)
	}
	for i, inj := range camp.Injections {
		if inj.Result == nil {
			continue
		}
		ds := inj.Result.Traj.Downsample(downsample)
		ds.Trial = i % 5
		trajs = append(trajs, ds)
		var truth []core.ErrorTruth
		for _, seg := range ds.Segments() {
			if !seg.Unsafe {
				continue
			}
			onset := seg.Start
			winStart := inj.WindowStart / downsample
			if winStart > onset && winStart < seg.End {
				onset = winStart
			}
			truth = append(truth, core.ErrorTruth{
				Gesture: seg.Gesture, SegStart: seg.Start, SegEnd: seg.End, Onset: onset,
			})
		}
		truths = append(truths, truth)
	}
	return trajs, truths, nil
}

// truthsFor builds ErrorTruth slices (with precise onsets) for synthetic
// demos.
func truthsFor(demos []*synth.Demo) [][]core.ErrorTruth {
	out := make([][]core.ErrorTruth, len(demos))
	for i, d := range demos {
		for _, ev := range d.Events {
			out[i] = append(out[i], core.ErrorTruth{
				Gesture:  int(ev.Gesture),
				SegStart: ev.SegStart,
				SegEnd:   ev.SegEnd,
				Onset:    ev.Onset,
			})
		}
	}
	return out
}

// splitTruths selects the truth slices matching a LOSO test subset.
func splitTruths(all []*synth.Demo, truths [][]core.ErrorTruth, test []*kinematics.Trajectory) [][]core.ErrorTruth {
	index := map[*kinematics.Trajectory]int{}
	for i, d := range all {
		index[d.Traj] = i
	}
	out := make([][]core.ErrorTruth, len(test))
	for i, tr := range test {
		if j, ok := index[tr]; ok {
			out[i] = truths[j]
		}
	}
	return out
}
