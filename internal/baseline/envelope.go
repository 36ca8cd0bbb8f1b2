package baseline

import (
	"errors"
	"math"

	"repro/internal/kinematics"
)

// StaticEnvelope is the fixed-safety-check baseline the paper's
// introduction argues against (after Alemzadeh et al., DSN 2016): it
// learns a per-feature safe range [min−m·σ, max+m·σ] from safe training
// frames and flags any frame that leaves the envelope. The gesture-aware
// variant keeps one envelope per gesture, demonstrating that even
// threshold checks benefit from operational context.
type StaticEnvelope struct {
	// Margin widens the envelope by this many training standard
	// deviations per feature (default 0.5).
	Margin float64
	// PerGesture selects gesture-conditioned envelopes.
	PerGesture bool

	features  kinematics.FeatureSet
	global    *envelope
	byGesture map[int]*envelope
	fitted    bool
}

// envelope holds per-feature bounds.
type envelope struct {
	lo, hi []float64
	n      int
}

func newEnvelope(dim int) *envelope {
	e := &envelope{lo: make([]float64, dim), hi: make([]float64, dim)}
	for i := 0; i < dim; i++ {
		e.lo[i] = math.Inf(1)
		e.hi[i] = math.Inf(-1)
	}
	return e
}

func (e *envelope) observe(row []float64) {
	for i, v := range row {
		if v < e.lo[i] {
			e.lo[i] = v
		}
		if v > e.hi[i] {
			e.hi[i] = v
		}
	}
	e.n++
}

// widen expands the bounds by margin·σ where σ is approximated from the
// range (range/4 for a roughly bell-shaped spread).
func (e *envelope) widen(margin float64) {
	for i := range e.lo {
		sigma := (e.hi[i] - e.lo[i]) / 4
		e.lo[i] -= margin * sigma
		e.hi[i] += margin * sigma
	}
}

// violation returns the worst normalized envelope excess of a row
// (0 = inside everywhere; 1 = one range-width outside). It saturates at
// math.MaxFloat64: an excess that overflows (a huge finite value over a
// narrow range) stays unsafe at any finite threshold without becoming a
// +Inf score, which no JSON surface can carry. A NaN value is inside no
// range, so it counts as that saturated excess.
func (e *envelope) violation(row []float64) float64 {
	var worst float64
	for i, v := range row {
		width := e.hi[i] - e.lo[i]
		if width <= 0 {
			width = 1e-9
		}
		var excess float64
		switch {
		case v < e.lo[i]:
			excess = (e.lo[i] - v) / width
		case v > e.hi[i]:
			excess = (v - e.hi[i]) / width
		case math.IsNaN(v):
			excess = math.MaxFloat64
		}
		if excess > worst {
			worst = excess
		}
	}
	return math.Min(worst, math.MaxFloat64)
}

// NewStaticEnvelope constructs the baseline over a feature subset.
func NewStaticEnvelope(features kinematics.FeatureSet, perGesture bool) *StaticEnvelope {
	return &StaticEnvelope{
		Margin:     0.5,
		PerGesture: perGesture,
		features:   features,
	}
}

// ErrNoSafeFrames is returned when the training set has no safe frames.
var ErrNoSafeFrames = errors.New("baseline: no safe frames to fit envelope")

// Fit learns the envelope(s) from the safe frames of labeled trajectories.
func (s *StaticEnvelope) Fit(trajs []*kinematics.Trajectory) error {
	dim := s.features.Dim()
	s.global = newEnvelope(dim)
	s.byGesture = map[int]*envelope{}
	for _, tr := range trajs {
		mat := s.features.Matrix(tr)
		for i, row := range mat {
			if len(tr.Unsafe) == len(tr.Frames) && tr.Unsafe[i] {
				continue
			}
			s.global.observe(row)
			if s.PerGesture && len(tr.Gestures) == len(tr.Frames) {
				g := tr.Gestures[i]
				e := s.byGesture[g]
				if e == nil {
					e = newEnvelope(dim)
					s.byGesture[g] = e
				}
				e.observe(row)
			}
		}
	}
	if s.global.n == 0 {
		return ErrNoSafeFrames
	}
	s.global.widen(s.Margin)
	for _, e := range s.byGesture {
		e.widen(s.Margin)
	}
	s.fitted = true
	return nil
}

// selectEnvelope picks the envelope for a gesture context: the gesture's
// own envelope when PerGesture is set and it saw at least 10 training
// frames, the global envelope otherwise. Both scoring paths (batch Score
// and the streaming EnvelopeScorer) share this rule, so they cannot drift.
func (s *StaticEnvelope) selectEnvelope(gestureIdx int) *envelope {
	if s.PerGesture {
		if ge, ok := s.byGesture[gestureIdx]; ok && ge.n >= 10 {
			return ge
		}
	}
	return s.global
}

// Score returns the envelope-violation magnitude of a frame given its
// gesture context (ignored unless PerGesture). Higher = more unsafe;
// 0 means fully inside the envelope.
func (s *StaticEnvelope) Score(f *kinematics.Frame, gestureIdx int) (float64, error) {
	if !s.fitted {
		return 0, ErrNotFitted
	}
	row := s.features.Extract(f, nil)
	return s.selectEnvelope(gestureIdx).violation(row), nil
}

// EnvelopeScorer scores frames against a fitted StaticEnvelope with a
// cached feature projection and a reusable row buffer, so a warm Score
// performs zero heap allocations. Scores are identical to
// StaticEnvelope.Score. A scorer is not safe for concurrent use; create
// one per stream (the envelope itself stays shared and read-only).
type EnvelopeScorer struct {
	env *StaticEnvelope
	ext *kinematics.Extractor
	row []float64
}

// NewScorer builds a per-stream scorer over the fitted envelope.
func (s *StaticEnvelope) NewScorer() (*EnvelopeScorer, error) {
	if !s.fitted {
		return nil, ErrNotFitted
	}
	ext := s.features.NewExtractor()
	return &EnvelopeScorer{env: s, ext: ext, row: make([]float64, ext.Dim())}, nil
}

// Score returns the envelope-violation magnitude of a frame given its
// gesture context, exactly as StaticEnvelope.Score does.
func (sc *EnvelopeScorer) Score(f *kinematics.Frame, gestureIdx int) float64 {
	row := sc.ext.ExtractInto(f, sc.row)
	return sc.env.selectEnvelope(gestureIdx).violation(row)
}

// ScoreTrajectory scores every frame of a trajectory.
func (s *StaticEnvelope) ScoreTrajectory(tr *kinematics.Trajectory) ([]float64, error) {
	out := make([]float64, len(tr.Frames))
	for i := range tr.Frames {
		g := 0
		if len(tr.Gestures) == len(tr.Frames) {
			g = tr.Gestures[i]
		}
		v, err := s.Score(&tr.Frames[i], g)
		if err != nil {
			return nil, err
		}
		out[i] = v
	}
	return out, nil
}
