package safemon

import (
	"bytes"
	"context"
	"fmt"
)

// The cascade backend implements two-stage cascade detection: the static
// envelope (a cheap front filter) scores every frame, and the paper's
// context-aware monitor (the expensive nn-backed inner stage) runs only
// while the front reports suspicion.
//
// The front's score is compared against cascadeArm every frame. A score
// at or above it arms the inner detector for cascadeHoldoff frames (the
// counter refreshes on every suspicious frame, so suspicion streaks
// extend the window). While armed, the inner detector's verdict is
// returned verbatim; while disarmed, the inner detector still observes
// the frame — its sliding windows stay warm, so the first armed frame
// scores a fully populated evidence window — but skips all inference, and
// the cascade reports the front's score with Unsafe forced false (only
// the inner stage may raise alerts).

// The cascade's gating. Front scores are envelope violation magnitudes,
// not probabilities, so the arm threshold sits near zero.
const (
	cascadeArm     = 0.02
	cascadeHoldoff = 30 // one second at the 30 Hz kinematics rate
)

// cascadeStages opens the cascade's two unfitted stages with its config:
// the envelope front and the context-aware inner detector. Neither honors
// lookahead.
func cascadeStages(cfg Config) (front, inner *detector) {
	cfg.Lookahead = false
	return newDetector("envelope", cfg, fitEnvelope, decodeEnvelope), newContextDetector(cfg)
}

func fitCascade(ctx context.Context, _ string, cfg Config, trajs []*Trajectory) (model, error) {
	front, inner := cascadeStages(cfg)
	if err := front.Fit(ctx, trajs); err != nil {
		return nil, fmt.Errorf("safemon: fit cascade front stage: %w", err)
	}
	if err := inner.Fit(ctx, trajs); err != nil {
		return nil, fmt.Errorf("safemon: fit cascade inner stage: %w", err)
	}
	return cascadeModel{front, inner}, nil
}

// cascadePayload is the cascade's artifact payload: the resolved
// configuration plus the two stages' own complete Save artifacts, nested
// verbatim so each stage round-trips through its native loader.
type cascadePayload struct {
	Config    persistedConfig
	FrontName string
	InnerName string
	Front     []byte
	Inner     []byte
}

func decodeCascade(name string, base Config, data []byte) (Config, model, error) {
	var p cascadePayload
	cfg, err := decodePayload(name, data, base, &p, &p.Config)
	if err != nil {
		return cfg, nil, err
	}
	front, inner := cascadeStages(cfg)
	if err := checkFixedCascade(&p, front.name, inner.name); err != nil {
		return cfg, nil, corruptErr("validate", name, err)
	}
	// Each stage's Load rejects an artifact for any other backend.
	if err := front.Load(bytes.NewReader(p.Front)); err != nil {
		return cfg, nil, artifactErr("decode", name, fmt.Errorf("front stage: %w", err))
	}
	if err := inner.Load(bytes.NewReader(p.Inner)); err != nil {
		return cfg, nil, artifactErr("decode", name, fmt.Errorf("inner stage: %w", err))
	}
	return cfg, cascadeModel{front, inner}, nil
}

// checkFixedCascade refuses a cascade artifact saved with other stages or
// other gating than this build serves: replaying it under the fixed
// composition would change its recorded verdicts. Empty and zero persisted
// knobs mean the defaults.
func checkFixedCascade(p *cascadePayload, front, inner string) error {
	c := p.Config
	switch {
	case p.FrontName != front || p.InnerName != inner,
		c.CascadeFront != "" && c.CascadeFront != front,
		c.CascadeInner != "" && c.CascadeInner != inner:
		return fmt.Errorf("stages %q/%q (config %q/%q); this build serves %q/%q",
			p.FrontName, p.InnerName, c.CascadeFront, c.CascadeInner, front, inner)
	case c.CascadeArm != 0 && c.CascadeArm != cascadeArm,
		c.CascadeHoldoff != 0 && c.CascadeHoldoff != cascadeHoldoff:
		return fmt.Errorf("arm %v holdoff %d; this build serves arm %v holdoff %d",
			c.CascadeArm, c.CascadeHoldoff, cascadeArm, cascadeHoldoff)
	}
	return nil
}

// cascadeModel is the fitted state of a cascade detector: its two stage
// detectors, the inner one of the context family.
type cascadeModel struct{ front, inner *detector }

func (m cascadeModel) payload(cfg persistedConfig) (any, error) {
	var fb, ib bytes.Buffer
	if err := m.front.Save(&fb); err != nil {
		return nil, fmt.Errorf("front stage: %w", err)
	}
	if err := m.inner.Save(&ib); err != nil {
		return nil, fmt.Errorf("inner stage: %w", err)
	}
	return cascadePayload{
		Config:    cfg,
		FrontName: m.front.name,
		InnerName: m.inner.name,
		Front:     fb.Bytes(),
		Inner:     ib.Bytes(),
	}, nil
}

func (m cascadeModel) session(_ Config, labels []int) (Session, error) {
	// Stage sessions are created bare: guard and ledger wrapping apply to
	// the cascade session as a whole, not to each stage.
	fs, err := m.front.m.session(m.front.cfg, labels)
	if err != nil {
		return nil, err
	}
	in, err := m.inner.m.(contextModel).mon.NewStream(labels)
	if err != nil {
		fs.Close()
		return nil, err
	}
	return &cascadeSession{front: fs, inner: in, arm: cascadeArm, holdoff: cascadeHoldoff}, nil
}

// gatedStream is the cascade's view of its inner stream: full inference
// (Push), its frame-independent part (Prepare) and window-warming without
// inference (Observe). Frame indices stay aligned because both Push and
// Observe advance the stream's frame counter. *core.Stream implements
// it; tests substitute a fake.
type gatedStream interface {
	Push(f *Frame) FrameVerdict
	Prepare()
	Observe(f *Frame)
}

// cascadeSession gates the inner stream on the front session's score.
type cascadeSession struct {
	front   Session
	inner   gatedStream
	arm     float64
	holdoff int
	// armed counts how many more frames the inner detector runs; a front
	// score at or above arm refreshes it to holdoff.
	armed int
}

func (s *cascadeSession) Push(f *Frame) (FrameVerdict, error) {
	fv, err := s.front.Push(f)
	if err != nil {
		return FrameVerdict{}, err
	}
	if fv.Score >= s.arm {
		s.armed = s.holdoff
	}
	if s.armed > 0 {
		s.armed--
		return s.inner.Push(f), nil
	}
	// Disarmed: keep the inner windows warm without inference and report
	// the front's score. Only the inner stage may raise alerts.
	s.inner.Observe(f)
	fv.Unsafe = false
	return fv, nil
}

// Prepare prepares the inner stream only while the cascade is armed: then
// the next frame runs the inner Push. A disarmed next frame may only
// Observe, which would discard the prefix; if that frame arms the
// cascade, Push runs the prefix itself. The envelope front has nothing to
// prepare.
func (s *cascadeSession) Prepare() {
	if s.armed > 0 {
		s.inner.Prepare()
	}
}

func (s *cascadeSession) Close() error { return s.front.Close() }
