package core

import (
	"fmt"
	"sort"
	"strings"

	"repro/internal/kinematics"
	"repro/internal/stats"
)

// ErrorTruth is the ground truth for one erroneous gesture instance:
// the segment bounds and the frame at which the error actually begins to
// manifest ("the actual time of error occurrence", Equation 4).
type ErrorTruth struct {
	Gesture  int
	SegStart int
	SegEnd   int
	Onset    int
}

// TruthFromLabels derives ErrorTruth entries from a frame-labeled
// trajectory: each unsafe gesture segment becomes one instance, with the
// onset set to the segment start. Generators with more precise ground
// truth (synth, faultinject) should supply onsets directly instead.
func TruthFromLabels(traj *kinematics.Trajectory) []ErrorTruth {
	var out []ErrorTruth
	for _, s := range traj.Segments() {
		if s.Unsafe {
			out = append(out, ErrorTruth{Gesture: s.Gesture, SegStart: s.Start, SegEnd: s.End, Onset: s.Start})
		}
	}
	return out
}

// PipelineReport aggregates end-to-end pipeline metrics over a test set —
// the contents of Table VIII and, per gesture, Table IX.
type PipelineReport struct {
	// AUC and F1 of the unsafe class, micro-averaged over all frames.
	AUC float64
	F1  float64
	// PerDemoAUC holds one AUC per test demonstration (for the Figure 9
	// best/median/worst ROC analysis).
	PerDemoAUC []float64
	// ReactionTimesMS holds one reaction time per erroneous gesture
	// instance (positive = early detection).
	ReactionTimesMS []float64
	// EarlyDetectionPct is the share of erroneous gestures detected
	// before their actual error onset.
	EarlyDetectionPct float64
	// MissedErrors counts erroneous gestures never flagged.
	MissedErrors int
	TotalErrors  int
	// JitterMS holds gesture-boundary jitters (positive = early).
	JitterMS []float64
	// GestureAccuracy is the frame-level context accuracy (NaN-free; 0
	// when ground-truth gestures were used).
	GestureAccuracy float64
	// ComputeTimeMS is the mean per-frame inference latency.
	ComputeTimeMS float64
	// PerGesture holds the Table IX per-gesture rows.
	PerGesture map[int]*GestureTimeliness
	// Confusion is the frame-level unsafe confusion at the threshold.
	Confusion stats.BinaryConfusion
}

// GestureTimeliness is one Table IX row.
type GestureTimeliness struct {
	Gesture int
	// DetectionAccuracy is the share of the gesture's frames whose
	// context was correctly classified.
	DetectionAccuracy float64
	// JitterMS values for segments of this gesture (positive = early).
	JitterMS []float64
	// JitterErroneousMS restricts jitter to erroneous segments.
	JitterErroneousMS []float64
	// ReactionMS values for erroneous segments of this gesture.
	ReactionMS []float64
	// F1 of erroneous-gesture detection at segment level.
	segTP, segFP, segFN int
	// segCount tracks how many segments contributed to
	// DetectionAccuracy's incremental average.
	segCount int
}

// F1 returns the segment-level erroneous-detection F1 for the gesture.
func (g *GestureTimeliness) F1() float64 {
	p := ratio(g.segTP, g.segTP+g.segFP)
	r := ratio(g.segTP, g.segTP+g.segFN)
	if p+r == 0 {
		return 0
	}
	return 2 * p * r / (p + r)
}

func ratio(a, b int) float64 {
	if b == 0 {
		return 0
	}
	return float64(a) / float64(b)
}

// Evaluate runs the monitor over labeled test trajectories and computes
// the full pipeline report. truths supplies per-trajectory error ground
// truth; pass nil to derive it from the labels.
func (m *Monitor) Evaluate(trajs []*kinematics.Trajectory, truths [][]ErrorTruth) (*PipelineReport, error) {
	traces := make([]*Trace, len(trajs))
	for ti, traj := range trajs {
		trace, err := m.Run(traj)
		if err != nil {
			return nil, fmt.Errorf("core: evaluate trajectory %d: %w", ti, err)
		}
		traces[ti] = trace
	}
	contextPredicted := !(m.UseGroundTruthGestures || !m.Errors.GestureSpecific)
	return EvaluateTraces(trajs, traces, truths, m.Threshold, contextPredicted)
}

// EvaluateTraces aggregates precomputed traces into a pipeline report.
// traces[i] must be frame-aligned with trajs[i]. contextPredicted enables
// the gesture-accuracy metric (set it when the traces' gesture context came
// from a classifier rather than annotations). The aggregation is fully
// deterministic in its inputs, which lets concurrent trace producers (the
// safemon Runner) yield reports identical to the sequential path.
func EvaluateTraces(trajs []*kinematics.Trajectory, traces []*Trace, truths [][]ErrorTruth, threshold float64, contextPredicted bool) (*PipelineReport, error) {
	if len(traces) != len(trajs) {
		return nil, fmt.Errorf("core: %d traces for %d trajectories", len(traces), len(trajs))
	}
	rep := &PipelineReport{PerGesture: map[int]*GestureTimeliness{}}
	var allScores []float64
	var allLabels []bool
	var gestureCorrect, gestureTotal int
	var computeNS float64
	var computeFrames int

	for ti, traj := range trajs {
		trace := traces[ti]
		if len(trace.Verdicts) != len(traj.Frames) {
			return nil, fmt.Errorf("core: trace %d has %d verdicts for %d frames", ti, len(trace.Verdicts), len(traj.Frames))
		}
		scores := trace.Scores()
		msPerFrame := 1000.0 / traj.HzRate

		// Frame-level accuracy metrics.
		labels := make([]bool, len(scores))
		for i := range scores {
			labels[i] = traj.Unsafe[i]
			allScores = append(allScores, scores[i])
			allLabels = append(allLabels, labels[i])
			rep.Confusion.Add(scores[i] >= threshold, labels[i])
		}
		rep.PerDemoAUC = append(rep.PerDemoAUC, stats.AUC(scores, labels))
		computeNS += (trace.GestureComputeNS + trace.ErrorComputeNS) * float64(len(scores))
		computeFrames += len(scores)

		// Context accuracy + per-gesture jitter.
		pred := trace.PredictedGestures()
		if contextPredicted {
			for i, g := range pred {
				if g == traj.Gestures[i] {
					gestureCorrect++
				}
				gestureTotal++
			}
		}

		segs := traj.Segments()
		for _, seg := range segs {
			gt := rep.PerGesture[seg.Gesture]
			if gt == nil {
				gt = &GestureTimeliness{Gesture: seg.Gesture}
				rep.PerGesture[seg.Gesture] = gt
			}
			// Detection accuracy within the segment.
			correct := 0
			for i := seg.Start; i < seg.End; i++ {
				if pred[i] == seg.Gesture {
					correct++
				}
			}
			gt.DetectionAccuracy = (gt.DetectionAccuracy*float64(gestureSegCount(gt)) + float64(correct)/float64(seg.Len())) / float64(gestureSegCount(gt)+1)
			gt.segCount++
			// Jitter: first frame (searching from an early slack before
			// the boundary) where the predicted context matches.
			det := detectionFrame(pred, seg.Gesture, seg.Start, seg.End)
			if det >= 0 {
				j := float64(seg.Start-det) * msPerFrame
				gt.JitterMS = append(gt.JitterMS, j)
				rep.JitterMS = append(rep.JitterMS, j)
				if seg.Unsafe {
					gt.JitterErroneousMS = append(gt.JitterErroneousMS, j)
				}
			}
			// Segment-level erroneous detection bookkeeping.
			flagged := false
			for i := seg.Start; i < seg.End; i++ {
				if scores[i] >= threshold {
					flagged = true
					break
				}
			}
			switch {
			case flagged && seg.Unsafe:
				gt.segTP++
			case flagged && !seg.Unsafe:
				gt.segFP++
			case !flagged && seg.Unsafe:
				gt.segFN++
			}
		}

		// Reaction times per erroneous-gesture instance.
		var truth []ErrorTruth
		if truths != nil && ti < len(truths) {
			truth = truths[ti]
		} else {
			truth = TruthFromLabels(traj)
		}
		for _, tr := range truth {
			rep.TotalErrors++
			det := -1
			// Search a slack window before the segment too: a context
			// detected early can flag the error before the boundary.
			lo := tr.SegStart - int(0.5*traj.HzRate)
			if lo < 0 {
				lo = 0
			}
			for i := lo; i < tr.SegEnd; i++ {
				if scores[i] >= threshold {
					det = i
					break
				}
			}
			if det < 0 {
				rep.MissedErrors++
				continue
			}
			r := float64(tr.Onset-det) * msPerFrame
			rep.ReactionTimesMS = append(rep.ReactionTimesMS, r)
			if gt := rep.PerGesture[tr.Gesture]; gt != nil {
				gt.ReactionMS = append(gt.ReactionMS, r)
			}
		}
	}

	rep.AUC = stats.AUC(allScores, allLabels)
	rep.F1 = rep.Confusion.F1()
	if gestureTotal > 0 {
		rep.GestureAccuracy = float64(gestureCorrect) / float64(gestureTotal)
	}
	if computeFrames > 0 {
		rep.ComputeTimeMS = computeNS / float64(computeFrames) / 1e6
	}
	early := 0
	for _, r := range rep.ReactionTimesMS {
		if r > 0 {
			early++
		}
	}
	if rep.TotalErrors > 0 {
		rep.EarlyDetectionPct = 100 * float64(early) / float64(rep.TotalErrors)
	}
	return rep, nil
}

// segCount tracking for incremental DetectionAccuracy averaging.
func gestureSegCount(g *GestureTimeliness) int { return g.segCount }

// detectionFrame finds the first frame at which the predicted context
// matches the segment's gesture, searching from half the segment length
// before the boundary (to credit early detection) through the segment end.
// Returns -1 when the gesture is never detected.
func detectionFrame(pred []int, g, start, end int) int {
	lo := start - (end-start)/2
	if lo < 0 {
		lo = 0
	}
	for i := lo; i < end; i++ {
		if pred[i] == g {
			return i
		}
	}
	return -1
}

// Render returns a compact textual summary of the report.
func (r *PipelineReport) Render() string {
	var b strings.Builder
	fmt.Fprintf(&b, "AUC %.3f  F1 %.3f  reaction %.0f±%.0f ms  early %.1f%%  missed %d/%d  compute %.3f ms/frame\n",
		r.AUC, r.F1, stats.Mean(r.ReactionTimesMS), stats.StdDev(r.ReactionTimesMS),
		r.EarlyDetectionPct, r.MissedErrors, r.TotalErrors, r.ComputeTimeMS)
	if r.GestureAccuracy > 0 {
		fmt.Fprintf(&b, "gesture accuracy %.2f%%  mean jitter %.0f ms\n", 100*r.GestureAccuracy, stats.Mean(r.JitterMS))
	}
	gs := make([]int, 0, len(r.PerGesture))
	for g := range r.PerGesture {
		gs = append(gs, g)
	}
	sort.Ints(gs)
	for _, g := range gs {
		gt := r.PerGesture[g]
		fmt.Fprintf(&b, "  G%-2d det-acc %.1f%%  jitter %.0f ms  err-jitter %.0f ms  reaction %.0f ms  F1 %.2f\n",
			g, 100*gt.DetectionAccuracy, stats.Mean(gt.JitterMS),
			stats.Mean(gt.JitterErroneousMS), stats.Mean(gt.ReactionMS), gt.F1())
	}
	return b.String()
}
