package core

import (
	"errors"
	"fmt"
	"math/rand"

	"repro/internal/dataset"
	"repro/internal/gesture"
	"repro/internal/kinematics"
	"repro/internal/nn"
	"repro/internal/stats"
)

// GestureClassifierConfig configures training of the gesture segmentation
// and classification stage (Equation 2 of the paper).
type GestureClassifierConfig struct {
	// Features selects the kinematic variables (the paper uses all 38 for
	// the JIGSAWS tasks and Cartesian+Grasper for Block Transfer).
	Features kinematics.FeatureSet
	// Window and Stride control sliding-window extraction.
	Window, Stride int
	// LSTMUnits are the hidden sizes of the stacked LSTM layers.
	LSTMUnits []int
	// DenseUnits is the width of the fully connected layer before softmax.
	DenseUnits int
	// Dropout is the dropout probability applied after the LSTM stack.
	Dropout float64
	// Epochs, BatchSize, LR, Patience configure training.
	Epochs, BatchSize int
	LR                float64
	Patience          int
	// ValFraction is the held-out fraction used for early stopping.
	ValFraction float64
	// TrainStride optionally subsamples training windows (defaults to
	// Stride); evaluation always uses stride 1.
	TrainStride int
	// Seed makes training deterministic.
	Seed int64
}

// DefaultGestureClassifierConfig returns a CPU-scale configuration of the
// paper's architecture (stacked LSTM + dense + softmax).
func DefaultGestureClassifierConfig() GestureClassifierConfig {
	return GestureClassifierConfig{
		Features:    kinematics.AllFeatures(),
		Window:      12,
		Stride:      1,
		LSTMUnits:   []int{32, 16},
		DenseUnits:  16,
		Dropout:     0.1,
		Epochs:      8,
		BatchSize:   32,
		LR:          3e-3,
		Patience:    3,
		ValFraction: 0.12,
		TrainStride: 3,
		Seed:        1,
	}
}

// GestureClassifier is the trained context-inference stage.
type GestureClassifier struct {
	Net          *nn.Network
	Standardizer *kinematics.Standardizer
	Config       GestureClassifierConfig
}

// ErrNoData is returned when training receives no usable windows.
var ErrNoData = errors.New("core: no training windows")

// TrainGestureClassifier trains the stacked-LSTM gesture classifier on
// frame-labeled trajectories.
func TrainGestureClassifier(trajs []*kinematics.Trajectory, cfg GestureClassifierConfig) (*GestureClassifier, error) {
	if cfg.Window <= 0 || cfg.Stride <= 0 {
		return nil, fmt.Errorf("core: bad window config %d/%d", cfg.Window, cfg.Stride)
	}
	rng := rand.New(rand.NewSource(cfg.Seed))
	trainStride := cfg.TrainStride
	if trainStride <= 0 {
		trainStride = cfg.Stride
	}
	windows, std, err := dataset.FitSlide(trajs, dataset.Config{
		Features: cfg.Features, Size: cfg.Window, Stride: trainStride,
	})
	if err != nil {
		return nil, err
	}
	if len(windows) == 0 {
		return nil, ErrNoData
	}
	trainW, valW := dataset.HoldoutSplit(windows, cfg.ValFraction, rng)
	toSamples := func(ws []dataset.Window) []nn.Sample {
		out := make([]nn.Sample, len(ws))
		for i, w := range ws {
			out[i] = nn.Sample{X: w.X, Y: w.Gesture}
		}
		return out
	}

	net := nn.BuildStackedLSTM(rng, nn.StackedLSTMConfig{
		InputDim:   cfg.Features.Dim(),
		LSTMUnits:  cfg.LSTMUnits,
		DenseUnits: cfg.DenseUnits,
		NumClasses: gesture.NumClasses,
		Dropout:    cfg.Dropout,
	})
	_, err = net.Fit(toSamples(trainW), toSamples(valW), nn.TrainConfig{
		Epochs:     cfg.Epochs,
		BatchSize:  cfg.BatchSize,
		LR:         cfg.LR,
		DecayEvery: 3,
		DecayRate:  0.6,
		ClipNorm:   5,
		Patience:   cfg.Patience,
		Rng:        rng,
	})
	if err != nil {
		return nil, fmt.Errorf("core: train gesture classifier: %w", err)
	}
	return &GestureClassifier{Net: net, Standardizer: std, Config: cfg}, nil
}

// PredictFrames returns the per-frame gesture prediction for a trajectory.
// Frames before the first full window inherit the first prediction, so the
// output has exactly len(traj.Frames) entries. That backfill looks up to
// Window-1 frames ahead, so on those frames the result can differ from
// Stream.Push, which classifies the partial window seen so far; from frame
// Window-1 on the two agree.
func (gc *GestureClassifier) PredictFrames(traj *kinematics.Trajectory) ([]int, error) {
	out, _, err := gc.predictFrames(traj)
	return out, err
}

// predictFrames is PredictFrames that also reports, per frame, whether the
// logits it took the frame's gesture from hold a NaN.
func (gc *GestureClassifier) predictFrames(traj *kinematics.Trajectory) (out []int, nan []bool, err error) {
	windows, err := dataset.SlideTrajectory(traj, 0, dataset.Config{
		Features: gc.Config.Features, Size: gc.Config.Window, Stride: 1, Standardizer: gc.Standardizer,
	})
	if err != nil {
		return nil, nil, err
	}
	out = make([]int, len(traj.Frames))
	nan = make([]bool, len(traj.Frames))
	if len(windows) == 0 {
		return out, nan, nil
	}
	for _, w := range windows {
		logits := gc.Net.Forward(w.X, false)
		out[w.FrameIndex] = nn.Argmax(logits)
		nan[w.FrameIndex] = hasNaN(logits)
	}
	for i := 0; i < gc.Config.Window-1 && i < len(out); i++ {
		out[i] = out[gc.Config.Window-1]
		nan[i] = nan[gc.Config.Window-1]
	}
	return out, nan, nil
}

// Confusion evaluates the classifier on labeled trajectories, returning the
// gesture confusion matrix.
func (gc *GestureClassifier) Confusion(trajs []*kinematics.Trajectory) (*stats.MultiConfusion, error) {
	conf := stats.NewMultiConfusion(gesture.NumClasses)
	for _, t := range trajs {
		pred, err := gc.PredictFrames(t)
		if err != nil {
			return nil, err
		}
		for i, p := range pred {
			conf.Add(t.Gestures[i], p)
		}
	}
	return conf, nil
}

// Accuracy evaluates frame-level gesture accuracy on labeled trajectories.
func (gc *GestureClassifier) Accuracy(trajs []*kinematics.Trajectory) (float64, error) {
	conf, err := gc.Confusion(trajs)
	if err != nil {
		return 0, err
	}
	return conf.Accuracy(), nil
}
