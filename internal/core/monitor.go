package core

import (
	"errors"
	"time"

	"repro/internal/gesture"
	"repro/internal/kinematics"
	"repro/internal/nn"
)

// Alert is one unsafe-event detection raised by the online monitor.
type Alert struct {
	// FrameIndex is the kinematics frame at which the alert fired.
	FrameIndex int
	// Gesture is the inferred operational context at the alert instant.
	Gesture int
	// Score is the unsafe probability that crossed the threshold.
	Score float64
}

// Monitor is the online context-aware safety monitor: it couples the
// gesture classifier with the erroneous-gesture library and streams
// per-frame verdicts.
type Monitor struct {
	Gestures *GestureClassifier
	Errors   *ErrorLibrary
	// Threshold is the unsafe-probability alert threshold.
	Threshold float64
	// UseGroundTruthGestures switches the pipeline into the paper's
	// "perfect gesture boundaries" mode, where the operational context
	// comes from annotations instead of the classifier.
	UseGroundTruthGestures bool
	// Lookahead, when non-nil, implements the paper's future-work
	// suggestion that "predicting the gesture boundary ahead of time could
	// result in better reaction time" (§VI): alongside the current
	// context's head, the monitor pre-activates the error head of the most
	// likely next gesture under this task grammar and reports the larger
	// of the two scores. Early in a gesture the classifier often still
	// reports the previous context (negative jitter); the lookahead head
	// covers that gap, trading false-positive rate for earlier detection.
	// It applies to gesture-specific libraries only.
	Lookahead *gesture.MarkovChain
	// LookaheadBlend scales the lookahead head's score before the max
	// (0..1]; lower values make pre-activation more conservative. Zero
	// selects 0.8.
	LookaheadBlend float64
}

// NewMonitor builds a monitor from trained stages with the default 0.5
// alert threshold.
func NewMonitor(gc *GestureClassifier, el *ErrorLibrary) *Monitor {
	return &Monitor{Gestures: gc, Errors: el, Threshold: 0.5}
}

// FrameVerdict is the monitor's output for one kinematics frame.
type FrameVerdict struct {
	FrameIndex int
	Gesture    int
	Score      float64
	Unsafe     bool
}

// Trace is the monitor's full output over one trajectory.
type Trace struct {
	Verdicts []FrameVerdict
	Alerts   []Alert
	// GestureComputeNS and ErrorComputeNS are the mean per-frame
	// inference times of the two stages in nanoseconds.
	GestureComputeNS float64
	ErrorComputeNS   float64
}

// ErrMonitorIncomplete is returned when a required stage is missing.
var ErrMonitorIncomplete = errors.New("core: monitor missing a trained stage")

// Scores returns the per-frame unsafe scores of a trace.
func (tr *Trace) Scores() []float64 {
	out := make([]float64, len(tr.Verdicts))
	for i, v := range tr.Verdicts {
		out[i] = v.Score
	}
	return out
}

// PredictedGestures returns the per-frame gesture context of a trace.
func (tr *Trace) PredictedGestures() []int {
	out := make([]int, len(tr.Verdicts))
	for i, v := range tr.Verdicts {
		out[i] = v.Gesture
	}
	return out
}

// Run processes a whole trajectory offline (windowed, stride 1), producing
// the same verdict sequence the streaming path yields. It measures the
// per-frame compute time of each stage, reported in Table VIII.
func (m *Monitor) Run(traj *kinematics.Trajectory) (*Trace, error) {
	if m.Errors == nil {
		return nil, ErrMonitorIncomplete
	}
	useGT := m.UseGroundTruthGestures || !m.Errors.GestureSpecific
	var gestures []int
	var gestureNS float64
	if useGT {
		if len(traj.Gestures) != len(traj.Frames) {
			return nil, errors.New("core: ground-truth gestures requested but trajectory is unlabeled")
		}
		gestures = traj.Gestures
	} else {
		if m.Gestures == nil {
			return nil, ErrMonitorIncomplete
		}
		start := time.Now()
		var err error
		gestures, err = m.Gestures.PredictFrames(traj)
		if err != nil {
			return nil, err
		}
		gestureNS = float64(time.Since(start).Nanoseconds()) / float64(len(traj.Frames))
	}

	// Extract error-stage windows at stride 1.
	cfg := m.Errors.Config
	feat := cfg.Features.Matrix(traj)
	if m.Errors.Standardizer != nil {
		m.Errors.Standardizer.TransformAll(feat)
	}

	trace := &Trace{GestureComputeNS: gestureNS}
	start := time.Now()
	for end := range traj.Frames {
		lo := end - cfg.Window + 1
		if lo < 0 {
			lo = 0
		}
		g := 0
		if m.Errors.GestureSpecific {
			g = gestures[end]
		} else {
			g = -1
		}
		score := m.Errors.Score(g, feat[lo:end+1])
		if next, blend := m.lookahead(g); next != 0 {
			if s := blend * m.Errors.Score(next, feat[lo:end+1]); s > score {
				score = s
			}
		}
		v := FrameVerdict{
			FrameIndex: end,
			Gesture:    gestures[end],
			Score:      score,
			Unsafe:     score >= m.Threshold,
		}
		trace.Verdicts = append(trace.Verdicts, v)
		if v.Unsafe {
			trace.Alerts = append(trace.Alerts, Alert{FrameIndex: end, Gesture: v.Gesture, Score: score})
		}
	}
	trace.ErrorComputeNS = float64(time.Since(start).Nanoseconds()) / float64(len(traj.Frames))
	return trace, nil
}

// lookahead returns the error head to pre-activate after context g — the
// most probable successor of g under m.Lookahead — and the blend to scale
// its score by. next is 0 when lookahead is off, the library is gesture-
// agnostic, or the successor has no trained head.
func (m *Monitor) lookahead(g int) (next int, blend float64) {
	if m.Lookahead == nil || !m.Errors.GestureSpecific || g <= 0 || g > gesture.MaxGesture {
		return 0, 0
	}
	bestP := 0.0
	for succ, p := range m.Lookahead.Row(g) {
		if succ != gesture.StateEnd && succ != gesture.StateStart && p > bestP {
			next, bestP = succ, p
		}
	}
	if next == 0 || m.Errors.PerGesture[next] == nil {
		return 0, 0
	}
	blend = m.LookaheadBlend
	if blend <= 0 {
		blend = 0.8
	}
	return next, blend
}

// slidingWindow is a fixed-capacity sliding window of feature rows with
// all row storage preallocated at construction: pushing past capacity
// recycles the evicted oldest row's backing array for the incoming frame,
// so steady-state pushes never touch the heap. rows is the current window
// view, oldest first.
type slidingWindow struct {
	rows    [][]float64
	backing [][]float64
}

func newSlidingWindow(capacity, dim int) slidingWindow {
	w := slidingWindow{
		rows:    make([][]float64, 0, capacity),
		backing: make([][]float64, capacity),
	}
	buf := make([]float64, capacity*dim)
	for i := range w.backing {
		w.backing[i] = buf[i*dim : (i+1)*dim : (i+1)*dim]
	}
	return w
}

// next advances the window by one frame and returns the row buffer the
// caller must fill completely (its previous contents are stale).
func (w *slidingWindow) next() []float64 {
	if len(w.rows) < cap(w.rows) {
		row := w.backing[len(w.rows)]
		w.rows = append(w.rows, row)
		return row
	}
	row := w.rows[0]
	copy(w.rows, w.rows[1:])
	w.rows[len(w.rows)-1] = row
	return row
}

// reset empties the window, keeping every row's backing capacity.
func (w *slidingWindow) reset() { w.rows = w.rows[:0] }

// errHeadScorer mirrors ErrorLibrary.Score over per-stream nn.Predictors:
// one scratch-backed predictor per trained head, built once at stream
// creation, so scoring a window allocates nothing. The head-selection
// fallback chain (gesture head, then global, then safe 0) is identical to
// ErrorLibrary.Score and the scores are numerically identical.
type errHeadScorer struct {
	lib    *ErrorLibrary
	per    map[int]*nn.Predictor
	global *nn.Predictor
}

func newErrHeadScorer(lib *ErrorLibrary) errHeadScorer {
	h := errHeadScorer{lib: lib}
	maxT, dim := lib.Config.Window, lib.Config.Features.Dim()
	if lib.GestureSpecific && len(lib.PerGesture) > 0 {
		h.per = make(map[int]*nn.Predictor, len(lib.PerGesture))
		for g, net := range lib.PerGesture {
			if net != nil {
				h.per[g] = net.NewPredictor(maxT, dim)
			}
		}
	}
	if lib.Global != nil {
		h.global = lib.Global.NewPredictor(maxT, dim)
	}
	return h
}

func (h *errHeadScorer) score(gestureIdx int, window [][]float64) float64 {
	var p *nn.Predictor
	if h.lib.GestureSpecific {
		p = h.per[gestureIdx]
	}
	if p == nil {
		p = h.global
	}
	if p == nil {
		return 0
	}
	return p.Predict(window)[1]
}

// Stream is the constant-latency online interface: feed one frame at a
// time and receive a verdict. It maintains the sliding windows internally.
// All window rows, feature projections and per-head inference scratch are
// allocated at NewStream, so a warm Push performs zero heap allocations.
type Stream struct {
	m *Monitor
	// sliding windows of standardized features for each stage
	gestureWin slidingWindow
	errorWin   slidingWindow
	// cached feature projections for each stage
	gestureExt *kinematics.Extractor
	errorExt   *kinematics.Extractor
	// per-stream inference scratch: the gesture classifier and every
	// error head (shared trained networks, private buffers)
	gesturePred *nn.Predictor
	errHeads    errHeadScorer
	frameIdx    int
	// groundTruth optionally supplies per-frame gesture labels for
	// perfect-boundary streaming.
	groundTruth []int
}

// NewStream creates a streaming session. groundTruth may be nil unless the
// monitor is configured for perfect boundaries.
func (m *Monitor) NewStream(groundTruth []int) (*Stream, error) {
	if m.Errors == nil {
		return nil, ErrMonitorIncomplete
	}
	if m.UseGroundTruthGestures && m.Errors.GestureSpecific && groundTruth == nil {
		return nil, errors.New("core: perfect-boundary streaming needs ground-truth labels")
	}
	if !m.UseGroundTruthGestures && m.Errors.GestureSpecific && m.Gestures == nil {
		return nil, ErrMonitorIncomplete
	}
	s := &Stream{m: m, groundTruth: groundTruth}
	cfg := m.Errors.Config
	s.errorExt = cfg.Features.NewExtractor()
	s.errorWin = newSlidingWindow(cfg.Window, s.errorExt.Dim())
	s.errHeads = newErrHeadScorer(m.Errors)
	if !m.UseGroundTruthGestures && m.Errors.GestureSpecific && m.Gestures != nil {
		gc := m.Gestures
		s.gestureExt = gc.Config.Features.NewExtractor()
		s.gestureWin = newSlidingWindow(gc.Config.Window, s.gestureExt.Dim())
		s.gesturePred = gc.Net.NewPredictor(gc.Config.Window, s.gestureExt.Dim())
	}
	return s, nil
}

// Reset rewinds the stream to frame zero so the session can be reused for
// another trajectory without re-allocating its window buffers. groundTruth
// replaces the per-frame gesture labels (nil outside perfect-boundary mode).
//
// Reset is pool-safe: it may be called at any point — including mid-
// trajectory, as session pools do when a stream is abandoned — and the
// reused stream is indistinguishable from a fresh one (no window contents,
// frame counter, or label slice survive; the truncated buffers only retain
// backing capacity, which the next pushes overwrite before reading).
func (s *Stream) Reset(groundTruth []int) error {
	if s.m.UseGroundTruthGestures && s.m.Errors.GestureSpecific && groundTruth == nil {
		return errors.New("core: perfect-boundary streaming needs ground-truth labels")
	}
	s.gestureWin.reset()
	s.errorWin.reset()
	s.frameIdx = 0
	s.groundTruth = groundTruth
	return nil
}

// Observe consumes one kinematics frame without running any neural
// inference: the sliding windows of both stages advance (feature
// extraction and standardization still happen — they are the cheap part of
// Push), but neither the gesture classifier nor an error head executes.
//
// It exists for cascade-style gating: a front filter can keep a monitor
// stream's evidence windows warm at negligible per-frame cost, so when
// suspicion arms the monitor its next Push scores exactly the window an
// always-on monitor would have seen.
func (s *Stream) Observe(f *kinematics.Frame) {
	m := s.m
	s.frameIdx++
	if s.gesturePred != nil {
		row := s.gestureExt.ExtractInto(f, s.gestureWin.next())
		if m.Gestures.Standardizer != nil {
			m.Gestures.Standardizer.Transform(row)
		}
	}
	row := s.errorExt.ExtractInto(f, s.errorWin.next())
	if m.Errors.Standardizer != nil {
		m.Errors.Standardizer.Transform(row)
	}
}

// Push consumes one kinematics frame and returns the verdict for it.
func (s *Stream) Push(f *kinematics.Frame) FrameVerdict {
	m := s.m
	idx := s.frameIdx
	s.frameIdx++

	// Gesture context. Gesture-agnostic libraries echo supplied labels so
	// verdicts stay frame-aligned with Run's per-gesture reporting.
	g := 0
	switch {
	case (m.UseGroundTruthGestures || !m.Errors.GestureSpecific) && s.groundTruth != nil:
		if idx < len(s.groundTruth) {
			g = s.groundTruth[idx]
		}
	case s.gesturePred != nil:
		row := s.gestureExt.ExtractInto(f, s.gestureWin.next())
		if m.Gestures.Standardizer != nil {
			m.Gestures.Standardizer.Transform(row)
		}
		g = s.gesturePred.PredictClass(s.gestureWin.rows)
	}

	// Error stage.
	row := s.errorExt.ExtractInto(f, s.errorWin.next())
	if m.Errors.Standardizer != nil {
		m.Errors.Standardizer.Transform(row)
	}
	lookup := g
	if !m.Errors.GestureSpecific {
		lookup = -1
	}
	score := s.errHeads.score(lookup, s.errorWin.rows)
	if next, blend := m.lookahead(g); next != 0 {
		if la := blend * s.errHeads.score(next, s.errorWin.rows); la > score {
			score = la
		}
	}
	return FrameVerdict{
		FrameIndex: idx,
		Gesture:    g,
		Score:      score,
		Unsafe:     score >= m.Threshold,
	}
}
