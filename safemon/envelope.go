package safemon

import (
	"context"
	"errors"
	"fmt"

	"repro/internal/baseline"
)

// The envelope backend serves baseline.StaticEnvelope: per-feature safe
// ranges learned from safe training frames, flagging frames that leave the
// envelope. Scores are violation magnitudes (0 = inside), so thresholds
// near zero are typical. WithGroundTruthContext selects one envelope per
// gesture (sessions then need WithSessionLabels); otherwise one global
// envelope covers every context.

// fitStaticEnvelope fits a static envelope over cfg's error features (CRG
// by default), widened by the default margin.
func fitStaticEnvelope(cfg Config, perGesture bool, trajs []*Trajectory) (*baseline.StaticEnvelope, error) {
	features := cfg.ErrorFeatures
	if features == nil {
		features = CRG()
	}
	env := baseline.NewStaticEnvelope(features, perGesture)
	return env, env.Fit(trajs)
}

func fitEnvelope(_ context.Context, _ string, cfg Config, trajs []*Trajectory) (model, error) {
	env, err := fitStaticEnvelope(cfg, cfg.GroundTruthContext, trajs)
	if err != nil {
		return nil, fmt.Errorf("safemon: fit envelope: %w", err)
	}
	return envelopeModel{env}, nil
}

// envelopePayload is the artifact payload of the static-envelope baseline.
type envelopePayload struct {
	Config   persistedConfig
	Envelope []byte
}

func decodeEnvelope(name string, base Config, data []byte) (Config, model, error) {
	var p envelopePayload
	cfg, err := decodePayload(name, data, base, &p, &p.Config)
	if err != nil {
		return cfg, nil, err
	}
	env := &baseline.StaticEnvelope{}
	if err := env.UnmarshalBinary(p.Envelope); err != nil {
		return cfg, nil, corruptErr("decode", name, err)
	}
	if env.PerGesture != cfg.GroundTruthContext {
		return cfg, nil, corruptErr("validate", name, errors.New("per-gesture flag disagrees with config"))
	}
	return cfg, envelopeModel{env}, nil
}

// envelopeModel is the fitted state of an envelope detector.
type envelopeModel struct{ env *baseline.StaticEnvelope }

func (m envelopeModel) payload(cfg persistedConfig) (any, error) {
	env, err := m.env.MarshalBinary()
	return envelopePayload{Config: cfg, Envelope: env}, err
}

func (m envelopeModel) session(cfg Config, labels []int) (Session, error) {
	if cfg.GroundTruthContext && labels == nil {
		return nil, errors.New("safemon: per-gesture envelope session needs WithSessionLabels")
	}
	scorer, err := m.env.NewScorer()
	if err != nil {
		return nil, err
	}
	return &envelopeSession{scorer: scorer, threshold: cfg.Threshold, labels: labels}, nil
}

type envelopeSession struct {
	scorer    *baseline.EnvelopeScorer
	threshold float64
	labels    []int
	idx       int
}

func (s *envelopeSession) Push(f *Frame) (FrameVerdict, error) {
	g := 0
	if s.idx < len(s.labels) {
		g = s.labels[s.idx]
	}
	score := s.scorer.Score(f, g)
	v := FrameVerdict{
		FrameIndex: s.idx,
		Gesture:    g,
		Score:      score,
		Unsafe:     score >= s.threshold,
	}
	s.idx++
	return v, nil
}

func (s *envelopeSession) Prepare()     {}
func (s *envelopeSession) Close() error { return nil }
