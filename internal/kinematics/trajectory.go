package kinematics

import (
	"errors"
	"fmt"
	"math"
)

// Common trajectory errors.
var (
	ErrEmptyTrajectory = errors.New("kinematics: empty trajectory")
	ErrLengthMismatch  = errors.New("kinematics: label/frame length mismatch")
)

// Trajectory is a time series of kinematic frames sampled at a fixed rate,
// optionally carrying per-frame gesture labels and per-frame safety labels.
type Trajectory struct {
	// Frames holds the kinematic samples in temporal order.
	Frames []Frame
	// HzRate is the sampling rate in frames per second (30 for dVRK-style
	// recordings, 1000 for the Raven II simulator).
	HzRate float64
	// Gestures holds the per-frame gesture label (0 when unlabeled). Its
	// length is either 0 (unlabeled) or len(Frames).
	Gestures []int
	// Unsafe holds the per-frame safety annotation (true = erroneous). Its
	// length is either 0 (unlabeled) or len(Frames).
	Unsafe []bool
	// Subject identifies the (synthetic) surgeon who produced the demo.
	Subject string
	// Trial is the super-trial index used by the LOSO split.
	Trial int
}

// Validate checks internal consistency of the trajectory.
func (t *Trajectory) Validate() error {
	if len(t.Frames) == 0 {
		return ErrEmptyTrajectory
	}
	if len(t.Gestures) != 0 && len(t.Gestures) != len(t.Frames) {
		return fmt.Errorf("%w: %d gestures for %d frames", ErrLengthMismatch, len(t.Gestures), len(t.Frames))
	}
	if len(t.Unsafe) != 0 && len(t.Unsafe) != len(t.Frames) {
		return fmt.Errorf("%w: %d safety labels for %d frames", ErrLengthMismatch, len(t.Unsafe), len(t.Frames))
	}
	if t.HzRate <= 0 {
		return fmt.Errorf("kinematics: non-positive sample rate %v", t.HzRate)
	}
	return nil
}

// Len returns the number of frames.
func (t *Trajectory) Len() int { return len(t.Frames) }

// Duration returns the wall-clock duration covered by the trajectory.
func (t *Trajectory) DurationSeconds() float64 {
	if t.HzRate <= 0 {
		return 0
	}
	return float64(len(t.Frames)) / t.HzRate
}

// Clone returns a deep copy of the trajectory.
func (t *Trajectory) Clone() *Trajectory {
	out := &Trajectory{
		Frames:  make([]Frame, len(t.Frames)),
		HzRate:  t.HzRate,
		Subject: t.Subject,
		Trial:   t.Trial,
	}
	copy(out.Frames, t.Frames)
	if t.Gestures != nil {
		out.Gestures = make([]int, len(t.Gestures))
		copy(out.Gestures, t.Gestures)
	}
	if t.Unsafe != nil {
		out.Unsafe = make([]bool, len(t.Unsafe))
		copy(out.Unsafe, t.Unsafe)
	}
	return out
}

// Segment describes a maximal run of frames sharing one gesture label.
type Segment struct {
	Gesture int
	Start   int // inclusive frame index
	End     int // exclusive frame index
	Unsafe  bool
}

// Len returns the number of frames in the segment.
func (s Segment) Len() int { return s.End - s.Start }

// Segments decomposes the trajectory into maximal constant-gesture runs.
// A segment is marked Unsafe if any of its frames is labeled unsafe,
// mirroring the paper's rule that a gesture containing any erroneous sample
// is an erroneous gesture.
func (t *Trajectory) Segments() []Segment {
	if len(t.Gestures) == 0 {
		return nil
	}
	var segs []Segment
	start := 0
	for i := 1; i <= len(t.Gestures); i++ {
		if i == len(t.Gestures) || t.Gestures[i] != t.Gestures[start] {
			seg := Segment{Gesture: t.Gestures[start], Start: start, End: i}
			if len(t.Unsafe) == len(t.Frames) {
				for j := start; j < i; j++ {
					if t.Unsafe[j] {
						seg.Unsafe = true
						break
					}
				}
			}
			segs = append(segs, seg)
			start = i
		}
	}
	return segs
}

// GestureSequence returns the sequence of gesture labels with consecutive
// duplicates collapsed (the demonstration's path through the task grammar).
func (t *Trajectory) GestureSequence() []int {
	segs := t.Segments()
	out := make([]int, 0, len(segs))
	for _, s := range segs {
		out = append(out, s.Gesture)
	}
	return out
}

// Downsample returns a new trajectory keeping one frame out of every factor
// frames. It is used to convert 1000 Hz simulator logs into monitor-rate
// streams. A factor <= 1 returns a clone.
func (t *Trajectory) Downsample(factor int) *Trajectory {
	if factor <= 1 {
		return t.Clone()
	}
	n := (len(t.Frames) + factor - 1) / factor
	out := &Trajectory{
		Frames:  make([]Frame, 0, n),
		HzRate:  t.HzRate / float64(factor),
		Subject: t.Subject,
		Trial:   t.Trial,
	}
	hasG := len(t.Gestures) == len(t.Frames)
	hasU := len(t.Unsafe) == len(t.Frames)
	if hasG {
		out.Gestures = make([]int, 0, n)
	}
	if hasU {
		out.Unsafe = make([]bool, 0, n)
	}
	for i := 0; i < len(t.Frames); i += factor {
		out.Frames = append(out.Frames, t.Frames[i])
		if hasG {
			out.Gestures = append(out.Gestures, t.Gestures[i])
		}
		if hasU {
			// Preserve any unsafe flag within the skipped run so that
			// downsampling never hides an erroneous instant.
			unsafeRun := false
			for j := i; j < i+factor && j < len(t.Frames); j++ {
				if t.Unsafe[j] {
					unsafeRun = true
					break
				}
			}
			out.Unsafe = append(out.Unsafe, unsafeRun)
		}
	}
	return out
}

// UnsafeFraction returns the fraction of frames labeled unsafe, or 0 when
// the trajectory carries no safety labels.
func (t *Trajectory) UnsafeFraction() float64 {
	if len(t.Unsafe) == 0 {
		return 0
	}
	count := 0
	for _, u := range t.Unsafe {
		if u {
			count++
		}
	}
	return float64(count) / float64(len(t.Unsafe))
}

// FiniteCheck returns an error if any frame contains a NaN or Inf value.
func (t *Trajectory) FiniteCheck() error {
	for i := range t.Frames {
		for j, v := range t.Frames[i] {
			if math.IsNaN(v) || math.IsInf(v, 0) {
				return fmt.Errorf("kinematics: non-finite value at frame %d feature %d", i, j)
			}
		}
	}
	return nil
}
