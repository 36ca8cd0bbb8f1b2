package safemon

import (
	"context"
	"io"
)

// detector is the one Detector implementation behind every built-in
// backend. It owns the lifecycle all of them share — the configuration,
// the fitted state, artifact framing, load failures and session options —
// and leaves to each backend only what differs: training (fit), restoring
// a model from an artifact payload (decode), and the model itself.
type detector struct {
	name   string
	cfg    Config
	fit    fitFunc
	decode decodeFunc

	// m is the fitted model, nil until Fit or Load succeeds.
	m model
	// loadErr records a failed Load so sessions can report why the
	// detector is unusable instead of a generic not-fitted error.
	loadErr error
}

// A backend trains its model with a fitFunc and restores one from an
// artifact payload with a decodeFunc, which also returns the configuration
// the payload embeds, restored over base. name is the registry name; it
// selects the variant within a family (context-aware, lookahead or
// monolithic; skipchain or sdsdl).
type (
	fitFunc    func(ctx context.Context, name string, cfg Config, trajs []*Trajectory) (model, error)
	decodeFunc func(name string, base Config, payload []byte) (Config, model, error)
)

// model is a backend's fitted state: the artifact payload it saves and the
// bare sessions it opens (the shell adds guard and ledger wrapping).
type model interface {
	// payload returns the gob-encodable artifact payload, embedding cfg.
	payload(cfg persistedConfig) (any, error)
	session(cfg Config, labels []int) (Session, error)
}

func newDetector(name string, cfg Config, fit fitFunc, decode decodeFunc) *detector {
	return &detector{name: name, cfg: cfg, fit: fit, decode: decode}
}

func (d *detector) Info() Info {
	return Info{
		Name:            d.name,
		Threshold:       d.cfg.Threshold,
		PredictsContext: d.predictsContext(),
		Timing:          d.cfg.Timing,
	}
}

// predictsContext reports whether traces carry classifier-predicted
// gesture context. The cascade never claims it: its disarmed frames carry
// the front's context (labels or none), even when its inner stage
// predicts.
func (d *detector) predictsContext() bool {
	switch d.name {
	case "context-aware", "lookahead":
		return !d.cfg.GroundTruthContext
	case "skipchain", "sdsdl":
		return true
	}
	return false
}

func (d *detector) Fit(ctx context.Context, trajs []*Trajectory) error {
	if err := ctx.Err(); err != nil {
		return err
	}
	m, err := d.fit(ctx, d.name, d.cfg, trajs)
	if err != nil {
		return err
	}
	d.m, d.loadErr = m, nil
	return nil
}

// Save writes the fitted detector as a self-describing artifact.
func (d *detector) Save(w io.Writer) error {
	if d.m == nil {
		return ErrNotFitted
	}
	p, err := d.m.payload(persistConfig(d.cfg))
	if err != nil {
		return artifactErr("encode", d.name, err)
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
func (d *detector) Load(r io.Reader) error {
	if d.m != nil {
		return ErrAlreadyFitted
	}
	backend, payload, err := readArtifact(r)
	if err == nil {
		err = guardLoad(d.name, func() error {
			if err := checkBackendName(backend, d.name); err != nil {
				return err
			}
			cfg, m, err := d.decode(d.name, d.cfg, payload)
			if err != nil {
				return err
			}
			d.cfg, d.m = cfg, m
			return nil
		})
	}
	d.loadErr = err
	return err
}

func (d *detector) Run(ctx context.Context, traj *Trajectory) (*Trace, error) {
	return runViaSession(ctx, d, traj, d.cfg.Timing)
}

func (d *detector) NewSession(opts ...SessionOption) (Session, error) {
	if d.m == nil {
		return nil, notReadyErr(d.name, d.loadErr)
	}
	sc := applySessionOptions(opts)
	s, err := d.m.session(d.cfg, sc.groundTruth)
	if err != nil {
		return nil, err
	}
	return wrapGuard(s, sc)
}
