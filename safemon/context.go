package safemon

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"math/rand"

	"repro/internal/core"
	"repro/internal/gesture"
)

// contextDetector adapts the paper's two-stage monitor (core.Monitor) and
// its boundary-lookahead variant (core.LookaheadMonitor) to the Detector
// interface. With gestureSpecific false it is the non-context-specific
// (monolithic) baseline instead.
type contextDetector struct {
	cfg             Config
	name            string
	gestureSpecific bool

	mon *core.Monitor
	la  *core.LookaheadMonitor
	// loadErr records a failed Load so sessions can report why the
	// detector is unusable instead of a generic not-fitted error.
	loadErr error
}

func (d *contextDetector) config() Config { return d.cfg }

func newContextDetector(cfg Config) *contextDetector {
	name := "context-aware"
	if cfg.Lookahead {
		name = "lookahead"
	}
	return &contextDetector{cfg: cfg, name: name, gestureSpecific: true}
}

func newMonolithicDetector(cfg Config) *contextDetector {
	cfg.Lookahead = false
	return &contextDetector{cfg: cfg, name: "monolithic"}
}

func (d *contextDetector) Info() Info {
	return Info{
		Name:            d.name,
		Threshold:       d.cfg.Threshold,
		PredictsContext: d.gestureSpecific && !d.cfg.GroundTruthContext,
		Timing:          d.cfg.Timing,
	}
}

func (d *contextDetector) Fit(ctx context.Context, trajs []*Trajectory) error {
	if err := ctx.Err(); err != nil {
		return err
	}
	elCfg := core.DefaultErrorDetectorConfig()
	if d.cfg.ErrorFeatures != nil {
		elCfg.Features = d.cfg.ErrorFeatures
	}
	if d.cfg.Window > 0 {
		elCfg.Window = d.cfg.Window
	}
	if d.cfg.Arch != 0 {
		elCfg.Arch = d.cfg.Arch
	}
	if d.cfg.Epochs > 0 {
		elCfg.Epochs = d.cfg.Epochs
	}
	if d.cfg.TrainStride > 0 {
		elCfg.TrainStride = d.cfg.TrainStride
	}
	elCfg.Seed = d.cfg.Seed + 7
	elCfg.Verbose = d.cfg.Verbose

	var lib *core.ErrorLibrary
	var err error
	if d.gestureSpecific {
		lib, err = core.TrainErrorLibrary(trajs, elCfg)
	} else {
		lib, err = core.TrainMonolithicDetector(trajs, elCfg)
	}
	if err != nil {
		return fmt.Errorf("safemon: fit %s error stage: %w", d.name, err)
	}

	var gc *core.GestureClassifier
	if d.gestureSpecific && !d.cfg.GroundTruthContext {
		if err := ctx.Err(); err != nil {
			return err
		}
		gcCfg := core.DefaultGestureClassifierConfig()
		if d.cfg.GestureFeatures != nil {
			gcCfg.Features = d.cfg.GestureFeatures
		}
		if d.cfg.Epochs > 0 {
			gcCfg.Epochs = d.cfg.Epochs
		}
		if d.cfg.TrainStride > 0 {
			gcCfg.TrainStride = d.cfg.TrainStride
		}
		gcCfg.Seed = d.cfg.Seed
		gcCfg.Verbose = d.cfg.Verbose
		gc, err = core.TrainGestureClassifier(trajs, gcCfg)
		if err != nil {
			return fmt.Errorf("safemon: fit %s context stage: %w", d.name, err)
		}
	}

	mon := core.NewMonitor(gc, lib)
	mon.Threshold = d.cfg.Threshold
	mon.UseGroundTruthGestures = d.cfg.GroundTruthContext
	if d.cfg.Lookahead {
		chain := d.cfg.Chain
		if chain == nil {
			seqs := make([][]int, 0, len(trajs))
			for _, tr := range trajs {
				seqs = append(seqs, tr.GestureSequence())
			}
			chain, err = gesture.FitMarkovChain(seqs)
			if err != nil {
				return fmt.Errorf("safemon: fit lookahead grammar: %w", err)
			}
		}
		d.la = core.NewLookaheadMonitor(mon, chain)
	}
	d.mon = mon
	d.loadErr = nil
	return nil
}

// contextPayload is the artifact payload of the context-aware, lookahead
// and monolithic backends: the serialized two-stage monitor bundle plus the
// resolved configuration (and, for lookahead, the task grammar and blend).
type contextPayload struct {
	Config  persistedConfig
	Monitor []byte
	Chain   *gesture.MarkovChain
	Blend   float64
}

// Save writes the fitted detector as a self-describing artifact.
func (d *contextDetector) Save(w io.Writer) error {
	if d.mon == nil {
		return ErrNotFitted
	}
	var mon bytes.Buffer
	if err := d.mon.Encode(&mon); err != nil {
		return artifactErr("encode", d.name, err)
	}
	p := contextPayload{Config: persistConfig(d.cfg), Monitor: mon.Bytes()}
	if d.la != nil {
		p.Chain = d.la.Chain
		p.Blend = d.la.Blend
	}
	payload, err := encodeGob(d.name, p)
	if err != nil {
		return err
	}
	return writeArtifact(w, d.name, payload)
}

// Load restores fitted state from a Save artifact of the same backend. On
// failure the detector stays unfitted and records the error (sessions then
// fail with it); it never ends up half-populated.
func (d *contextDetector) Load(r io.Reader) error {
	if d.mon != nil {
		return ErrAlreadyFitted
	}
	backend, payload, err := readArtifact(r)
	if err != nil {
		d.loadErr = err
		return err
	}
	return d.loadPayload(backend, payload)
}

// loadPayload restores fitted state from an already-parsed artifact
// (LoadDetector's single-parse path).
func (d *contextDetector) loadPayload(backend string, payload []byte) error {
	if d.mon != nil {
		return ErrAlreadyFitted
	}
	err := guardLoad(d.name, func() error {
		if err := checkBackendName(backend, d.name); err != nil {
			return err
		}
		var p contextPayload
		if err := decodeGob(d.name, payload, &p); err != nil {
			return err
		}
		cfg, err := p.Config.restore(d.cfg)
		if err != nil {
			return artifactErr("validate", d.name, err)
		}
		mon, err := core.DecodeMonitor(bytes.NewReader(p.Monitor), rand.New(rand.NewSource(cfg.Seed)))
		if err != nil {
			return artifactErr("decode", d.name, fmt.Errorf("%w: %v", ErrCorruptPayload, err))
		}
		if mon.Errors.GestureSpecific != d.gestureSpecific {
			return artifactErr("validate", d.name, fmt.Errorf("%w: gesture-specificity mismatch", ErrCorruptPayload))
		}
		if d.gestureSpecific && !cfg.GroundTruthContext && mon.Gestures == nil {
			return artifactErr("validate", d.name, fmt.Errorf("%w: classifier-context artifact without a gesture stage", ErrCorruptPayload))
		}
		var la *core.LookaheadMonitor
		if cfg.Lookahead != (d.name == "lookahead") {
			return artifactErr("validate", d.name, fmt.Errorf("%w: lookahead flag disagrees with backend name", ErrCorruptPayload))
		}
		if cfg.Lookahead {
			if p.Chain == nil {
				return artifactErr("validate", d.name, fmt.Errorf("%w: lookahead artifact without a task grammar", ErrCorruptPayload))
			}
			la = core.NewLookaheadMonitor(mon, p.Chain)
			if p.Blend > 0 {
				la.Blend = p.Blend
			}
			cfg.Chain = p.Chain
		}
		d.cfg = cfg
		d.mon = mon
		d.la = la
		return nil
	})
	if err != nil {
		d.mon, d.la = nil, nil
		d.loadErr = err
		return err
	}
	d.loadErr = nil
	return nil
}

func (d *contextDetector) Run(ctx context.Context, traj *Trajectory) (*Trace, error) {
	return runViaSession(ctx, d, traj, d.cfg.Timing)
}

func (d *contextDetector) NewSession(opts ...SessionOption) (Session, error) {
	if d.mon == nil {
		return nil, notReadyErr(d.name, d.loadErr)
	}
	sc := applySessionOptions(opts)
	if d.la != nil {
		st, err := d.la.NewStream(sc.groundTruth)
		if err != nil {
			return nil, err
		}
		return wrapGuard(&coreSession{push: st.Push, reset: st.Reset}, sc)
	}
	st, err := d.mon.NewStream(sc.groundTruth)
	if err != nil {
		return nil, err
	}
	return wrapGuard(&coreSession{push: st.Push, reset: st.Reset}, sc)
}

// coreSession adapts core's two stream types to the Session interface.
type coreSession struct {
	push  func(*Frame) FrameVerdict
	reset func([]int) error
}

func (s *coreSession) Push(f *Frame) (FrameVerdict, error) { return s.push(f), nil }
func (s *coreSession) Reset(groundTruth []int) error       { return s.reset(groundTruth) }
func (s *coreSession) Close() error                        { return nil }
