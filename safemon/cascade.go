package safemon

import (
	"bytes"
	"context"
	"fmt"
	"io"

	"repro/internal/kinematics"
)

// cascadeDetector implements two-stage cascade detection: a cheap front
// filter (static envelope or SDSDL) scores every frame, and the expensive
// nn-backed inner detector runs only while the front reports suspicion.
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
type cascadeDetector struct {
	cfg Config

	front Detector
	inner *contextDetector
	// loadErr records a failed Load so sessions can report why the
	// detector is unusable instead of a generic not-fitted error.
	loadErr error
}

func newCascadeDetector(cfg Config) *cascadeDetector {
	return &cascadeDetector{cfg: cfg}
}

func (d *cascadeDetector) config() Config { return d.cfg }

// Cascade stage defaults.
const (
	defaultCascadeFront   = "envelope"
	defaultCascadeInner   = "context-aware"
	defaultCascadeArm     = 0.02
	defaultCascadeHoldoff = 30 // one second at the 30 Hz kinematics rate
)

// stages resolves and validates the cascade's stage selection and gating
// parameters. Factories cannot return errors, so an invalid selection
// surfaces here — at Fit, Load and NewSession time.
func (d *cascadeDetector) stages() (front, inner string, arm float64, holdoff int, err error) {
	front = d.cfg.CascadeFront
	if front == "" {
		front = defaultCascadeFront
	}
	inner = d.cfg.CascadeInner
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
	arm = d.cfg.CascadeArm
	if arm == 0 {
		arm = defaultCascadeArm
	}
	holdoff = d.cfg.CascadeHoldoff
	if holdoff <= 0 {
		holdoff = defaultCascadeHoldoff
	}
	return front, inner, arm, holdoff, nil
}

// stageConfig derives a stage's Config from the cascade's: the cascade
// knobs are cleared (stages are plain detectors), and the front
// additionally drops lookahead state, which only the inner nn backends
// honor. The "lookahead" factory re-sets cfg.Lookahead itself.
func (d *cascadeDetector) stageConfig(isFront bool) Config {
	cfg := d.cfg
	cfg.CascadeFront, cfg.CascadeInner = "", ""
	cfg.CascadeArm, cfg.CascadeHoldoff = 0, 0
	cfg.Lookahead = false
	if isFront {
		cfg.Chain = nil
	}
	return cfg
}

func (d *cascadeDetector) Info() Info {
	return Info{
		Name:      "cascade",
		Threshold: d.cfg.Threshold,
		// Disarmed frames carry the front's context (labels or none), so
		// the cascade does not claim classifier-predicted context even
		// when its inner stage does.
		PredictsContext: false,
		Timing:          d.cfg.Timing,
	}
}

// buildStages constructs unfitted front and inner detectors from the
// resolved stage names.
func (d *cascadeDetector) buildStages(frontName, innerName string) (Detector, *contextDetector, error) {
	front, err := openWith(frontName, d.stageConfig(true))
	if err != nil {
		return nil, nil, err
	}
	det, err := openWith(innerName, d.stageConfig(false))
	if err != nil {
		return nil, nil, err
	}
	inner, ok := det.(*contextDetector)
	if !ok {
		return nil, nil, fmt.Errorf("safemon: cascade inner backend %q is not gateable", innerName)
	}
	return front, inner, nil
}

func (d *cascadeDetector) Fit(ctx context.Context, trajs []*Trajectory) error {
	frontName, innerName, _, _, err := d.stages()
	if err != nil {
		return err
	}
	front, inner, err := d.buildStages(frontName, innerName)
	if err != nil {
		return err
	}
	if err := front.Fit(ctx, trajs); err != nil {
		return fmt.Errorf("safemon: fit cascade front stage: %w", err)
	}
	if err := inner.Fit(ctx, trajs); err != nil {
		return fmt.Errorf("safemon: fit cascade inner stage: %w", err)
	}
	d.front, d.inner = front, inner
	d.loadErr = nil
	return nil
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

func (d *cascadeDetector) Save(w io.Writer) error {
	if d.front == nil || d.inner == nil {
		return ErrNotFitted
	}
	frontName, innerName, _, _, err := d.stages()
	if err != nil {
		return err
	}
	var fb, ib bytes.Buffer
	if err := d.front.Save(&fb); err != nil {
		return artifactErr("encode", "cascade", fmt.Errorf("front stage: %w", err))
	}
	if err := d.inner.Save(&ib); err != nil {
		return artifactErr("encode", "cascade", fmt.Errorf("inner stage: %w", err))
	}
	p := cascadePayload{
		Config:    persistConfig(d.cfg),
		FrontName: frontName,
		InnerName: innerName,
		Front:     fb.Bytes(),
		Inner:     ib.Bytes(),
	}
	payload, err := encodeGob("cascade", p)
	if err != nil {
		return err
	}
	return writeArtifact(w, "cascade", payload)
}

func (d *cascadeDetector) Load(r io.Reader) error {
	if d.front != nil {
		return ErrAlreadyFitted
	}
	backend, payload, err := readArtifact(r)
	if err != nil {
		d.loadErr = err
		return err
	}
	return d.loadPayload(backend, payload)
}

func (d *cascadeDetector) loadPayload(backend string, payload []byte) error {
	if d.front != nil {
		return ErrAlreadyFitted
	}
	err := guardLoad("cascade", func() error {
		if err := checkBackendName(backend, "cascade"); err != nil {
			return err
		}
		var p cascadePayload
		if err := decodeGob("cascade", payload, &p); err != nil {
			return err
		}
		cfg, err := p.Config.restore(d.cfg)
		if err != nil {
			return artifactErr("validate", "cascade", err)
		}
		probe := &cascadeDetector{cfg: cfg}
		frontName, innerName, _, _, err := probe.stages()
		if err != nil {
			return artifactErr("validate", "cascade", fmt.Errorf("%w: %v", ErrCorruptPayload, err))
		}
		if p.FrontName != frontName || p.InnerName != innerName {
			return artifactErr("validate", "cascade", fmt.Errorf("%w: stage names %q/%q disagree with config %q/%q",
				ErrCorruptPayload, p.FrontName, p.InnerName, frontName, innerName))
		}
		front, err := LoadDetector(bytes.NewReader(p.Front))
		if err != nil {
			return artifactErr("decode", "cascade", fmt.Errorf("front stage: %w", err))
		}
		if got := front.Info().Name; got != frontName {
			return artifactErr("validate", "cascade", fmt.Errorf("%w: front artifact is for %q, config says %q", ErrCorruptPayload, got, frontName))
		}
		// The inner stage loads into a detector opened with its stage
		// config, whose Load rejects artifacts for any other backend.
		innerDet, err := openWith(innerName, probe.stageConfig(false))
		if err != nil {
			return artifactErr("decode", "cascade", fmt.Errorf("inner stage: %w", err))
		}
		if err := innerDet.Load(bytes.NewReader(p.Inner)); err != nil {
			return artifactErr("decode", "cascade", fmt.Errorf("inner stage: %w", err))
		}
		inner, ok := innerDet.(*contextDetector)
		if !ok {
			return artifactErr("validate", "cascade", fmt.Errorf("%w: inner backend %q is not gateable", ErrCorruptPayload, innerName))
		}
		d.cfg = cfg
		d.front = front
		d.inner = inner
		return nil
	})
	if err != nil {
		d.front, d.inner = nil, nil
		d.loadErr = err
		return err
	}
	d.loadErr = nil
	return nil
}

func (d *cascadeDetector) Run(ctx context.Context, traj *Trajectory) (*Trace, error) {
	return runViaSession(ctx, d, traj, d.cfg.Timing)
}

func (d *cascadeDetector) NewSession(opts ...SessionOption) (Session, error) {
	if d.front == nil || d.inner == nil {
		return nil, notReadyErr("cascade", d.loadErr)
	}
	_, _, arm, holdoff, err := d.stages()
	if err != nil {
		return nil, err
	}
	sc := applySessionOptions(opts)
	// Stage sessions are created bare: guard and ledger wrapping apply to
	// the cascade session as a whole, not to each stage.
	var fopts []SessionOption
	if sc.groundTruth != nil {
		fopts = append(fopts, WithSessionLabels(sc.groundTruth))
	}
	fs, err := d.front.NewSession(fopts...)
	if err != nil {
		return nil, err
	}
	in, err := d.inner.newGatedStream(sc.groundTruth)
	if err != nil {
		fs.Close()
		return nil, err
	}
	return wrapGuard(&cascadeSession{front: fs, inner: in, arm: arm, holdoff: holdoff}, sc)
}

// cascadeSession gates the inner stream on the front session's score.
type cascadeSession struct {
	front   Session
	inner   *gatedStream
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
		return s.inner.push(f), nil
	}
	// Disarmed: keep the inner windows warm without inference and report
	// the front's score. Only the inner stage may raise alerts.
	s.inner.observe(f)
	fv.Unsafe = false
	return fv, nil
}

func (s *cascadeSession) Reset(groundTruth []int) error {
	if err := s.front.Reset(groundTruth); err != nil {
		return err
	}
	if err := s.inner.reset(groundTruth); err != nil {
		return err
	}
	s.armed = 0
	return nil
}

func (s *cascadeSession) Close() error { return s.front.Close() }

// gatedStream is the cascade's view of an inner nn-backed stream: full
// inference (push), window-warming without inference (observe), and reuse
// (reset). Frame indices stay aligned because both paths advance the
// stream's frame counter.
type gatedStream struct {
	push    func(*kinematics.Frame) FrameVerdict
	observe func(*kinematics.Frame)
	reset   func([]int) error
}

// newGatedStream exposes a contextDetector's stream to the cascade.
func (d *contextDetector) newGatedStream(groundTruth []int) (*gatedStream, error) {
	if d.mon == nil {
		return nil, notReadyErr(d.name, d.loadErr)
	}
	if d.la != nil {
		st, err := d.la.NewStream(groundTruth)
		if err != nil {
			return nil, err
		}
		return &gatedStream{push: st.Push, observe: st.Observe, reset: st.Reset}, nil
	}
	st, err := d.mon.NewStream(groundTruth)
	if err != nil {
		return nil, err
	}
	return &gatedStream{push: st.Push, observe: st.Observe, reset: st.Reset}, nil
}
