// Package dataset provides the data-preparation machinery between raw
// kinematic trajectories and neural-network training samples: sliding-window
// extraction (Equation 2 of the paper), leave-one-supertrial-out (LOSO)
// splitting, per-gesture sample grouping, and class balancing.
package dataset

import (
	"errors"
	"math/rand"
	"sort"

	"repro/internal/kinematics"
)

// ErrBadWindow is returned for non-positive window or stride values.
var ErrBadWindow = errors.New("dataset: window and stride must be positive")

// Window is one sliding-window sample cut from a trajectory: a [T][D]
// feature matrix plus the labels at its final frame (the classification
// instant in the online monitor).
type Window struct {
	X [][]float64
	// Gesture is the gesture label at the window's last frame.
	Gesture int
	// Unsafe is the safety label at the window's last frame.
	Unsafe bool
	// TrajIndex and FrameIndex locate the window's final frame for
	// timeliness (jitter / reaction-time) analysis.
	TrajIndex  int
	FrameIndex int
}

// Config controls window extraction.
type Config struct {
	// Features selects the kinematic variable subset.
	Features kinematics.FeatureSet
	// Size is the window length w in frames.
	Size int
	// Stride is the hop s between consecutive windows.
	Stride int
	// Standardizer, when non-nil, is applied to every frame's features.
	Standardizer *kinematics.Standardizer
}

// SlideTrajectory cuts sliding windows from one trajectory. trajIndex tags
// the produced windows. Trajectories shorter than the window yield nothing.
func SlideTrajectory(t *kinematics.Trajectory, trajIndex int, cfg Config) ([]Window, error) {
	if cfg.Size <= 0 || cfg.Stride <= 0 {
		return nil, ErrBadWindow
	}
	feat := cfg.Features.Matrix(t)
	if cfg.Standardizer != nil {
		cfg.Standardizer.TransformAll(feat)
	}
	return cut(nil, t, trajIndex, feat, cfg), nil
}

// cut appends to out cfg's windows of feat, the feature matrix of t, as
// views into its rows.
func cut(out []Window, t *kinematics.Trajectory, trajIndex int, feat [][]float64, cfg Config) []Window {
	hasG := len(t.Gestures) == len(t.Frames)
	hasU := len(t.Unsafe) == len(t.Frames)
	for end := cfg.Size - 1; end < len(feat); end += cfg.Stride {
		w := Window{
			X:          feat[end-cfg.Size+1 : end+1],
			TrajIndex:  trajIndex,
			FrameIndex: end,
		}
		if hasG {
			w.Gesture = t.Gestures[end]
		}
		if hasU {
			w.Unsafe = t.Unsafe[end]
		}
		out = append(out, w)
	}
	return out
}

// Slide cuts sliding windows from every trajectory.
func Slide(trajs []*kinematics.Trajectory, cfg Config) ([]Window, error) {
	var out []Window
	for i, t := range trajs {
		ws, err := SlideTrajectory(t, i, cfg)
		if err != nil {
			return nil, err
		}
		out = append(out, ws...)
	}
	return out, nil
}

// FitSlide is FitStandardizer followed by Slide with the fitted
// standardizer, from one extraction of each trajectory's feature matrix:
// it fits the standardizer on the rows of every matrix, standardizes them
// in place and cuts cfg's windows from them. cfg.Standardizer is ignored.
// The windows and the standardizer are identical to the two-call form's.
func FitSlide(trajs []*kinematics.Trajectory, cfg Config) ([]Window, *kinematics.Standardizer, error) {
	if cfg.Size <= 0 || cfg.Stride <= 0 {
		return nil, nil, ErrBadWindow
	}
	n := 0
	for _, t := range trajs {
		n += len(t.Frames)
	}
	feats := make([][][]float64, len(trajs))
	rows := make([][]float64, 0, n)
	for i, t := range trajs {
		feats[i] = cfg.Features.Matrix(t)
		rows = append(rows, feats[i]...)
	}
	std := kinematics.FitStandardizer(rows)
	var out []Window
	for i, t := range trajs {
		out = cut(out, t, i, std.TransformAll(feats[i]), cfg)
	}
	return out, std, nil
}

// FitStandardizer fits a standardizer on the selected features of the
// training trajectories.
func FitStandardizer(trajs []*kinematics.Trajectory, features kinematics.FeatureSet) *kinematics.Standardizer {
	var rows [][]float64
	for _, t := range trajs {
		rows = append(rows, features.Matrix(t)...)
	}
	return kinematics.FitStandardizer(rows)
}

// LOSOSplit partitions trajectories into leave-one-supertrial-out folds:
// fold i holds out every trajectory whose Trial == trials[i]. This mirrors
// the JIGSAWS LOSO setup ("trained on 4 super trials and held one super
// trial out").
type LOSOSplit struct {
	Trial int
	Train []*kinematics.Trajectory
	Test  []*kinematics.Trajectory
}

// LOSO builds the folds. Trajectories are grouped by their Trial field.
func LOSO(trajs []*kinematics.Trajectory) []LOSOSplit {
	trialSet := map[int]bool{}
	for _, t := range trajs {
		trialSet[t.Trial] = true
	}
	trials := make([]int, 0, len(trialSet))
	for tr := range trialSet {
		trials = append(trials, tr)
	}
	sort.Ints(trials) // deterministic order
	folds := make([]LOSOSplit, 0, len(trials))
	for _, tr := range trials {
		fold := LOSOSplit{Trial: tr}
		for _, t := range trajs {
			if t.Trial == tr {
				fold.Test = append(fold.Test, t)
			} else {
				fold.Train = append(fold.Train, t)
			}
		}
		folds = append(folds, fold)
	}
	return folds
}

// ByGesture groups windows by their gesture label.
func ByGesture(ws []Window) map[int][]Window {
	out := map[int][]Window{}
	for _, w := range ws {
		out[w.Gesture] = append(out[w.Gesture], w)
	}
	return out
}

// CountUnsafe returns how many windows are labeled unsafe.
func CountUnsafe(ws []Window) int {
	n := 0
	for _, w := range ws {
		if w.Unsafe {
			n++
		}
	}
	return n
}

// HoldoutSplit splits windows into train/validation subsets with the given
// validation fraction, shuffled by rng. It backs early stopping.
func HoldoutSplit(ws []Window, valFrac float64, rng *rand.Rand) (train, val []Window) {
	if valFrac <= 0 || len(ws) < 4 {
		return ws, nil
	}
	idx := rng.Perm(len(ws))
	nVal := int(float64(len(ws)) * valFrac)
	if nVal < 1 {
		nVal = 1
	}
	val = make([]Window, 0, nVal)
	train = make([]Window, 0, len(ws)-nVal)
	for i, j := range idx {
		if i < nVal {
			val = append(val, ws[j])
		} else {
			train = append(train, ws[j])
		}
	}
	return train, val
}

// BalanceWeights computes per-class weights inversely proportional to class
// frequency over binary unsafe labels, returning (safeWeight, unsafeWeight).
// Classes absent from the data get weight 1.
func BalanceWeights(ws []Window) (safeW, unsafeW float64) {
	nUnsafe := CountUnsafe(ws)
	nSafe := len(ws) - nUnsafe
	if nSafe == 0 || nUnsafe == 0 {
		return 1, 1
	}
	total := float64(len(ws))
	return total / (2 * float64(nSafe)), total / (2 * float64(nUnsafe))
}
