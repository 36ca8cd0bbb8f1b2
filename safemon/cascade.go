package safemon

import (
	"bytes"
	"context"
	"fmt"
)

// The cascade backend implements two-stage cascade detection: a cheap
// front filter (static envelope or SDSDL) scores every frame, and the
// expensive nn-backed inner detector runs only while the front reports
// suspicion.
//
// The front's score is compared against an arm threshold every frame. A
// score at or above it arms the inner detector for CascadeHoldoff frames
// (the counter refreshes on every suspicious frame, so suspicion streaks
// extend the window). While armed, the inner detector's verdict is
// returned verbatim; while disarmed, the inner detector still observes
// the frame — its sliding windows stay warm, so the first armed frame
// scores a fully populated evidence window — but skips all inference, and
// the cascade reports the front's score with Unsafe forced false (only
// the inner stage may raise alerts).

// Cascade stage defaults.
const (
	defaultCascadeFront   = "envelope"
	defaultCascadeInner   = "context-aware"
	defaultCascadeArm     = 0.02
	defaultCascadeHoldoff = 30 // one second at the 30 Hz kinematics rate
)

// cascadeStages resolves and validates the cascade's stage selection and
// gating parameters. Factories cannot return errors, so an invalid
// selection surfaces here — at Fit, Load and NewSession time.
func cascadeStages(cfg Config) (front, inner string, arm float64, holdoff int, err error) {
	front = cfg.CascadeFront
	if front == "" {
		front = defaultCascadeFront
	}
	inner = cfg.CascadeInner
	if inner == "" {
		inner = defaultCascadeInner
	}
	switch front {
	case "envelope", "sdsdl":
	default:
		return "", "", 0, 0, fmt.Errorf("safemon: cascade front must be envelope or sdsdl, got %q", front)
	}
	switch inner {
	case "context-aware", "lookahead", "monolithic":
	default:
		return "", "", 0, 0, fmt.Errorf("safemon: cascade inner must be context-aware, lookahead or monolithic, got %q", inner)
	}
	arm = cfg.CascadeArm
	if arm == 0 {
		arm = defaultCascadeArm
	}
	holdoff = cfg.CascadeHoldoff
	if holdoff <= 0 {
		holdoff = defaultCascadeHoldoff
	}
	return front, inner, arm, holdoff, nil
}

// openStage opens an unfitted stage detector. Its Config is the cascade's
// with the cascade knobs cleared (stages are plain detectors); the front
// also drops lookahead state, which only the inner nn backends honor. The
// "lookahead" factory re-sets cfg.Lookahead itself.
func openStage(name string, cfg Config, isFront bool) (*detector, error) {
	cfg.CascadeFront, cfg.CascadeInner = "", ""
	cfg.CascadeArm, cfg.CascadeHoldoff = 0, 0
	cfg.Lookahead = false
	if isFront {
		cfg.Chain = nil
	}
	d, err := openWith(name, cfg)
	if err != nil {
		return nil, err
	}
	return d.(*detector), nil
}

func fitCascade(ctx context.Context, _ string, cfg Config, trajs []*Trajectory) (model, error) {
	frontName, innerName, _, _, err := cascadeStages(cfg)
	if err != nil {
		return nil, err
	}
	front, err := openStage(frontName, cfg, true)
	if err != nil {
		return nil, err
	}
	inner, err := openStage(innerName, cfg, false)
	if err != nil {
		return nil, err
	}
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
	frontName, innerName, _, _, err := cascadeStages(cfg)
	if err != nil {
		return cfg, nil, corruptErr("validate", name, err)
	}
	if p.FrontName != frontName || p.InnerName != innerName {
		return cfg, nil, corruptErr("validate", name, fmt.Errorf("stage names %q/%q disagree with config %q/%q",
			p.FrontName, p.InnerName, frontName, innerName))
	}
	// Each stage loads into a detector opened with its stage config, whose
	// Load rejects an artifact for any other backend.
	load := func(stage, stageName string, isFront bool, art []byte) (*detector, error) {
		d, err := openStage(stageName, cfg, isFront)
		if err == nil {
			err = d.Load(bytes.NewReader(art))
		}
		if err != nil {
			return nil, artifactErr("decode", name, fmt.Errorf("%s stage: %w", stage, err))
		}
		return d, nil
	}
	front, err := load("front", frontName, true, p.Front)
	if err != nil {
		return cfg, nil, err
	}
	inner, err := load("inner", innerName, false, p.Inner)
	if err != nil {
		return cfg, nil, err
	}
	return cfg, cascadeModel{front, inner}, nil
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

func (m cascadeModel) session(cfg Config, labels []int) (Session, error) {
	_, _, arm, holdoff, err := cascadeStages(cfg)
	if err != nil {
		return nil, err
	}
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
	return &cascadeSession{front: fs, inner: in, arm: arm, holdoff: holdoff}, nil
}

// gatedStream is the cascade's view of its inner stream: full inference
// (Push), window-warming without inference (Observe), and reuse (Reset).
// Frame indices stay aligned because both paths advance the stream's
// frame counter. *core.Stream implements it; tests substitute a fake.
type gatedStream interface {
	Push(f *Frame) FrameVerdict
	Observe(f *Frame)
	Reset(groundTruth []int) error
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

func (s *cascadeSession) Reset(groundTruth []int) error {
	if err := s.front.Reset(groundTruth); err != nil {
		return err
	}
	if err := s.inner.Reset(groundTruth); err != nil {
		return err
	}
	s.armed = 0
	return nil
}

func (s *cascadeSession) Close() error { return s.front.Close() }
