package core

import (
	"errors"
	"fmt"
	"math"
	"time"

	"repro/internal/gesture"
	"repro/internal/kinematics"
	"repro/internal/nn"
)

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
	// It applies to gesture-specific libraries only. The lookahead head's
	// score is scaled by LookaheadBlend before the max.
	Lookahead *gesture.MarkovChain
}

// LookaheadBlend scales the lookahead head's score before the max with the
// current context's; below 1, pre-activation is more conservative than
// the current context's head.
const LookaheadBlend = 0.8

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

// Run processes a whole trajectory offline (windowed, stride 1). It
// measures the per-frame compute time of each stage, reported in Table
// VIII.
//
// Its verdicts equal the streaming path's on every frame, with one
// exception: when the context is predicted, the first Window-1 frames
// differ. Run takes their gesture from the first full window
// (PredictFrames), which reaches up to Window-1 frames ahead, while
// Stream.Push classifies the partial window it has seen. From frame
// Window-1 on, both classify the same window and the verdicts are equal.
func (m *Monitor) Run(traj *kinematics.Trajectory) (*Trace, error) {
	if m.Errors == nil {
		return nil, ErrMonitorIncomplete
	}
	useGT := m.UseGroundTruthGestures || !m.Errors.GestureSpecific
	var gestures []int
	var nanLogits []bool // per frame: the gesture logits hold a NaN
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
		gestures, nanLogits, err = m.Gestures.predictFrames(traj)
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

	// lastBad[i] is the last frame at or before i holding a NaN or ±Inf
	// value, or -1. The gesture window of frame i ends at i, or at
	// Window-1 for the first frames, which take their context from there.
	lastBad := make([]int, len(traj.Frames))
	bad := -1
	for i := range traj.Frames {
		if !finite(&traj.Frames[i]) {
			bad = i
		}
		lastBad[i] = bad
	}

	trace := &Trace{GestureComputeNS: gestureNS}
	start := time.Now()
	for end := range traj.Frames {
		lo := end - cfg.Window + 1
		if lo < 0 {
			lo = 0
		}
		tainted := lastBad[end] >= lo
		if !useGT {
			gw := m.Gestures.Config.Window
			hi := min(max(end, gw-1), len(traj.Frames)-1)
			tainted = tainted || lastBad[hi] > hi-gw
		}
		g := 0
		if m.Errors.GestureSpecific {
			g = gestures[end]
		} else {
			g = -1
		}
		score := m.Errors.Score(g, feat[lo:end+1])
		if next := m.lookahead(g); next != 0 {
			score = worse(score, LookaheadBlend*m.Errors.Score(next, feat[lo:end+1]))
		}
		if tainted || nanLogits != nil && nanLogits[end] {
			score = math.NaN()
		}
		v := FrameVerdict{
			FrameIndex: end,
			Gesture:    gestures[end],
			Score:      score,
			Unsafe:     m.unsafe(score),
		}
		trace.Verdicts = append(trace.Verdicts, v)
	}
	trace.ErrorComputeNS = float64(time.Since(start).Nanoseconds()) / float64(len(traj.Frames))
	return trace, nil
}

// lookahead returns the error head to pre-activate after context g: the
// most probable successor of g under m.Lookahead. It is 0 when lookahead
// is off, the library is gesture-agnostic, or the successor has no
// trained head.
func (m *Monitor) lookahead(g int) (next int) {
	if m.Lookahead == nil || !m.Errors.GestureSpecific || g <= 0 || g > gesture.MaxGesture {
		return 0
	}
	bestP := 0.0
	for succ, p := range m.Lookahead.Row(g) {
		if succ != gesture.StateEnd && succ != gesture.StateStart && p > bestP {
			next, bestP = succ, p
		}
	}
	if m.Errors.PerGesture[next] == nil {
		return 0
	}
	return next
}

// unsafe reports whether score raises an alert. A NaN score means the
// monitor's own arithmetic broke, so it fails safe: it is unsafe.
func (m *Monitor) unsafe(score float64) bool {
	return score >= m.Threshold || math.IsNaN(score)
}

// finite reports whether every value of f is finite. Run and Push give
// every verdict whose gesture or error window holds a frame with a NaN or
// ±Inf value a NaN score, which is unsafe: the networks can turn such a
// row into a finite, safe-looking score. A single ±Inf input saturates an
// LSTM gate to an exact 0 or 1 rather than making it NaN, so the check is
// on the windows' frames, not on the networks' outputs.
func finite(f *kinematics.Frame) bool {
	for _, v := range f {
		if v-v != 0 { // 0 for every finite v, NaN for NaN and ±Inf
			return false
		}
	}
	return true
}

// hasNaN reports whether any of xs is NaN. Run and Push give a verdict
// whose gesture logits hold a NaN a NaN score: Argmax still picks a head
// from them, but the context it names is meaningless. Finite frames can
// get there too, when an activation overflows to ±Inf and meets its
// opposite.
func hasNaN(xs []float64) bool {
	for _, x := range xs {
		if x != x {
			return true
		}
	}
	return false
}

// worse returns the larger of the current-context and lookahead scores,
// or NaN if either is NaN, so a broken lookahead head is never dropped by
// the max.
func worse(score, la float64) float64 {
	if la > score || math.IsNaN(la) {
		return la
	}
	return score
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

// errHeadScorer mirrors ErrorLibrary.Score over per-stream nn.Predictors
// that all run in one scratch workspace, built once at stream creation,
// so scoring a window allocates nothing. One workspace serves every head
// because a stream scores one window at a time and every head comes from
// one buildErrorNet config; DecodeMonitor refuses a bundle whose heads
// differ in layer shapes. The head-selection fallback chain (gesture
// head, then global, then safe 0) is identical to ErrorLibrary.Score and
// the scores are numerically identical.
type errHeadScorer struct {
	lib    *ErrorLibrary
	per    map[int]*nn.Predictor
	global *nn.Predictor
}

func newErrHeadScorer(lib *ErrorLibrary) (errHeadScorer, error) {
	h := errHeadScorer{lib: lib}
	var ws *nn.Predictor
	predictor := func(net *nn.Network) (*nn.Predictor, error) {
		if ws == nil {
			ws = net.NewPredictor(lib.Config.Window, lib.Config.Features.Dim())
			return ws, nil
		}
		return ws.Share(net)
	}
	if lib.GestureSpecific && len(lib.PerGesture) > 0 {
		h.per = make(map[int]*nn.Predictor, len(lib.PerGesture))
		for g, net := range lib.PerGesture {
			if net == nil {
				continue
			}
			p, err := predictor(net)
			if err != nil {
				return h, fmt.Errorf("core: error head %d: %w", g, err)
			}
			h.per[g] = p
		}
	}
	if lib.Global != nil {
		p, err := predictor(lib.Global)
		if err != nil {
			return h, fmt.Errorf("core: global error head: %w", err)
		}
		h.global = p
	}
	return h, nil
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
//
// When the gesture classifier is LSTM layers followed by TakeLast
// (nn.Predictor.Stepwise), the stream also keeps projWin: the first
// layer's input projection B + Wx·x_t (nn.LSTM.Project) of every
// gestureWin row. Consecutive windows share all but one row, so each row
// is projected once, not once per window. The classifier then runs in two
// parts (nn.Predictor.Prefix and ForwardLast): Prepare runs the LSTM
// layers over the rows the next window shares with the current one, and
// Push steps each layer once on its frame's row. Push runs the prefix
// itself when nobody prepared it, so both orders give the same verdict.
// Observe defers its row's projection to the next Prepare and discards a
// prepared prefix.
type Stream struct {
	m *Monitor
	// sliding windows of standardized features for each stage
	gestureWin slidingWindow
	errorWin   slidingWindow
	// cached feature projections for each stage
	gestureExt *kinematics.Extractor
	errorExt   *kinematics.Extractor
	// per-stream inference scratch: the gesture classifier and the error
	// heads, which share one workspace (shared trained networks, private
	// buffers)
	gesturePred *nn.Predictor
	errHeads    errHeadScorer
	// gestureLSTM is the classifier's first layer when the classifier is
	// Stepwise, else nil. projWin advances in step with gestureWin, row
	// for row; its newest projStale rows are not yet projected. prepared
	// reports that gesturePred holds the prefix of the next window.
	gestureLSTM *nn.LSTM
	projWin     slidingWindow
	projStale   int
	prepared    bool
	frameIdx    int
	// tainted counts the verdicts, the current one included, whose
	// windows still hold a frame with a NaN or ±Inf value (see
	// Stream.see).
	tainted int
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
	var err error
	if s.errHeads, err = newErrHeadScorer(m.Errors); err != nil {
		return nil, err
	}
	if !m.UseGroundTruthGestures && m.Errors.GestureSpecific && m.Gestures != nil {
		gc := m.Gestures
		s.gestureExt = gc.Config.Features.NewExtractor()
		s.gestureWin = newSlidingWindow(gc.Config.Window, s.gestureExt.Dim())
		s.gesturePred = gc.Net.NewPredictor(gc.Config.Window, s.gestureExt.Dim())
		if s.gesturePred.Stepwise() {
			s.gestureLSTM = gc.Net.Layers[0].(*nn.LSTM)
			s.projWin = newSlidingWindow(gc.Config.Window, 4*s.gestureLSTM.Hidden)
		}
	}
	return s, nil
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
	s.see(f)
	if s.gesturePred != nil {
		s.advanceGesture(f)
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
	s.see(f)

	// Gesture context. Gesture-agnostic libraries echo supplied labels so
	// verdicts stay frame-aligned with Run's per-gesture reporting.
	g, nanLogits := 0, false
	switch {
	case (m.UseGroundTruthGestures || !m.Errors.GestureSpecific) && s.groundTruth != nil:
		if idx < len(s.groundTruth) {
			g = s.groundTruth[idx]
		}
	case s.gesturePred != nil:
		s.Prepare()
		s.advanceGesture(f)
		g, nanLogits = s.classify()
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
	if next := m.lookahead(g); next != 0 {
		score = worse(score, LookaheadBlend*s.errHeads.score(next, s.errorWin.rows))
	}
	if s.tainted > 0 || nanLogits {
		score = math.NaN()
	}
	return FrameVerdict{
		FrameIndex: idx,
		Gesture:    g,
		Score:      score,
		Unsafe:     m.unsafe(score),
	}
}

// Prepare does the part of the next Push that does not depend on its
// frame, so a caller with idle time between frames can take it off the
// verdict path: it projects the rows Observe left stale and runs the
// gesture classifier's LSTM layers over the rows the next window shares
// with the current one (all of them until the window is full, then the
// newest Window-1). Push then steps each layer once, on its frame's row.
// Push after Prepare returns the same verdict as Push alone, and a second
// Prepare before the next frame does nothing. It is a no-op when the
// stream does not classify, or classifies with a network that is not
// LSTM layers followed by TakeLast.
func (s *Stream) Prepare() {
	if s.gestureLSTM == nil || s.prepared {
		return
	}
	rows, proj := s.gestureWin.rows, s.projWin.rows
	first := 0
	if len(rows) == cap(rows) {
		first = 1 // the next frame evicts the oldest row
	}
	for t := max(len(rows)-s.projStale, first); t < len(rows); t++ {
		s.gestureLSTM.Project(proj[t], rows[t])
	}
	s.projStale = 0
	s.gesturePred.Prefix(proj[first:])
	s.prepared = true
}

// see counts frame f into s.tainted: a frame holding a NaN or ±Inf value
// stays in the stream's windows for as many frames as the longer one
// holds, its own included.
func (s *Stream) see(f *kinematics.Frame) {
	if !finite(f) {
		s.tainted = max(cap(s.errorWin.rows), cap(s.gestureWin.rows))
	} else if s.tainted > 0 {
		s.tainted--
	}
}

// advanceGesture slides frame f into the gesture window, standardized. Its
// input projection is left stale, and a prepared prefix is spent: no MACs
// run here.
func (s *Stream) advanceGesture(f *kinematics.Frame) {
	row := s.gestureExt.ExtractInto(f, s.gestureWin.next())
	if s.m.Gestures.Standardizer != nil {
		s.m.Gestures.Standardizer.Transform(row)
	}
	if s.gestureLSTM != nil {
		s.projWin.next()
		if s.projStale < len(s.projWin.rows) {
			s.projStale++
		}
		s.prepared = false
	}
}

// classify returns the gesture class of the current window, and whether
// its logits hold a NaN. A Stepwise classifier projects the newest row
// and finishes the window from the prefix Prepare ran before the window
// advanced.
func (s *Stream) classify() (int, bool) {
	var logits []float64
	if s.gestureLSTM == nil {
		logits = s.gesturePred.Forward(s.gestureWin.rows)
	} else {
		n := len(s.gestureWin.rows)
		last := s.projWin.rows[n-1]
		s.gestureLSTM.Project(last, s.gestureWin.rows[n-1])
		s.projStale = 0
		logits = s.gesturePred.ForwardLast(last)
	}
	return nn.Argmax(logits), hasNaN(logits)
}
