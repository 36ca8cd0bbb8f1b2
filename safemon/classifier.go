package safemon

import (
	"context"
	"errors"
	"fmt"
	"math/rand"

	"repro/internal/baseline"
	"repro/internal/kinematics"
)

// The skipchain and sdsdl backends compose a Table IV baseline gesture
// classifier (the context stage) with a per-gesture static envelope (the
// error stage): the classifier infers the current gesture online and the
// envelope validates the kinematics within that context. They demonstrate
// that the unified Detector interface accommodates backends whose two
// stages come from entirely different model families than the paper's
// neural pipeline.

func fitClassifier(_ context.Context, name string, cfg Config, trajs []*Trajectory) (model, error) {
	features := cfg.GestureFeatures
	if features == nil {
		features = AllFeatures()
	}
	xs := make([][][]float64, 0, len(trajs))
	ys := make([][]int, 0, len(trajs))
	for _, tr := range trajs {
		if len(tr.Gestures) != len(tr.Frames) {
			return nil, errors.New("safemon: classifier backends need gesture-labeled training trajectories")
		}
		xs = append(xs, features.Matrix(tr))
		ys = append(ys, tr.Gestures)
	}

	m := classifierModel{features: features}
	if name == "sdsdl" {
		stride := cfg.TrainStride
		if stride <= 0 {
			stride = 4 // keeps k-means tractable on full-rate data
		}
		frames, labels := flattenSequences(xs, ys, stride)
		m.sd = baseline.NewSDSDL(cfg.Atoms)
		if err := m.sd.Fit(rand.New(rand.NewSource(cfg.Seed)), frames, labels); err != nil {
			return nil, fmt.Errorf("safemon: fit sdsdl context stage: %w", err)
		}
	} else {
		m.sc = baseline.NewSkipChain(0) // the default skip lag
		if err := m.sc.Fit(xs, ys); err != nil {
			return nil, fmt.Errorf("safemon: fit skipchain context stage: %w", err)
		}
	}
	var err error
	if m.env, err = fitStaticEnvelope(cfg, true, trajs); err != nil {
		return nil, fmt.Errorf("safemon: fit %s error stage: %w", name, err)
	}
	return m, nil
}

// flattenSequences subsamples per-frame sequences into flat training pairs
// (every stride-th frame), keeping SDSDL's k-means tractable.
func flattenSequences(xs [][][]float64, ys [][]int, stride int) ([][]float64, []int) {
	var frames [][]float64
	var labels []int
	for i := range xs {
		for t := 0; t < len(xs[i]); t += stride {
			frames = append(frames, xs[i][t])
			labels = append(labels, ys[i][t])
		}
	}
	return frames, labels
}

// classifierPayload is the artifact payload of the skipchain and sdsdl
// backends: the context-stage classifier, the per-gesture envelope error
// stage, and the resolved context-feature projection.
type classifierPayload struct {
	Config    persistedConfig
	Features  []int
	SkipChain []byte
	SDSDL     []byte
	Envelope  []byte
}

func decodeClassifier(name string, base Config, data []byte) (Config, model, error) {
	var p classifierPayload
	cfg, err := decodePayload(name, data, base, &p, &p.Config)
	if err != nil {
		return cfg, nil, err
	}
	features, err := restoreFeatureSet(p.Features)
	if err != nil || features == nil {
		return cfg, nil, corruptErr("validate", name, fmt.Errorf("bad context feature set (%v)", err))
	}
	// The context stage is the classifier the backend names.
	m := classifierModel{features: features, env: &baseline.StaticEnvelope{}}
	var stage interface {
		UnmarshalBinary([]byte) error
		Dim() int
	}
	stageData := p.SkipChain
	if name == "sdsdl" {
		m.sd, stageData = &baseline.SDSDL{}, p.SDSDL
		stage = m.sd
	} else {
		m.sc = &baseline.SkipChain{}
		stage = m.sc
	}
	if len(stageData) == 0 {
		return cfg, nil, corruptErr("validate", name, fmt.Errorf("%s artifact without a classifier", name))
	}
	if err := stage.UnmarshalBinary(stageData); err != nil {
		return cfg, nil, corruptErr("decode", name, err)
	}
	if stage.Dim() != features.Dim() {
		return cfg, nil, corruptErr("validate", name, fmt.Errorf("classifier dimension %d disagrees with %d features", stage.Dim(), features.Dim()))
	}
	if err := m.env.UnmarshalBinary(p.Envelope); err != nil {
		return cfg, nil, corruptErr("decode", name, err)
	}
	return cfg, m, nil
}

// classifierModel is the fitted state of a skipchain or sdsdl detector:
// exactly one of sc and sd is set.
type classifierModel struct {
	features FeatureSet
	sc       *baseline.SkipChain
	sd       *baseline.SDSDL
	env      *baseline.StaticEnvelope
}

func (m classifierModel) payload(cfg persistedConfig) (any, error) {
	p := classifierPayload{Config: cfg, Features: featureInts(m.features)}
	var err error
	if p.Envelope, err = m.env.MarshalBinary(); err != nil {
		return nil, err
	}
	if m.sc != nil {
		p.SkipChain, err = m.sc.MarshalBinary()
	} else {
		p.SDSDL, err = m.sd.MarshalBinary()
	}
	return p, err
}

func (m classifierModel) session(cfg Config, _ []int) (Session, error) {
	// All per-frame scratch — the feature projection, the classifier's
	// decode state and the envelope scorer's row — is allocated here, so
	// a warm Push is allocation-free.
	env, err := m.env.NewScorer()
	if err != nil {
		return nil, err
	}
	ext := m.features.NewExtractor()
	s := &classifierSession{threshold: cfg.Threshold, env: env, ext: ext, row: make([]float64, ext.Dim())}
	if m.sc != nil {
		s.dec, err = m.sc.NewOnlineDecoder()
	} else {
		s.sd, err = m.sd.NewStreamPredictor()
	}
	if err != nil {
		return nil, err
	}
	return s, nil
}

type classifierSession struct {
	threshold float64
	dec       *baseline.OnlineDecoder
	sd        *baseline.StreamPredictor
	env       *baseline.EnvelopeScorer
	ext       *kinematics.Extractor
	row       []float64
	idx       int
}

func (s *classifierSession) Push(f *Frame) (FrameVerdict, error) {
	row := s.ext.ExtractInto(f, s.row)
	var g int
	if s.dec != nil {
		g = s.dec.Push(row)
	} else {
		g = s.sd.Predict(row)
	}
	score := s.env.Score(f, g)
	v := FrameVerdict{
		FrameIndex: s.idx,
		Gesture:    g,
		Score:      score,
		Unsafe:     score >= s.threshold,
	}
	s.idx++
	return v, nil
}

func (s *classifierSession) Prepare()     {}
func (s *classifierSession) Close() error { return nil }
