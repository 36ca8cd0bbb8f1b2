package safemon

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"math/rand"

	"repro/internal/core"
	"repro/internal/gesture"
)

// The context-aware, lookahead and monolithic backends serve the paper's
// two-stage monitor (core.Monitor). The lookahead backend also sets the
// monitor's Lookahead grammar; the monolithic baseline trains one
// gesture-agnostic error head in place of the per-gesture library.

// newContextDetector builds the paper's monitor, named "lookahead" when
// cfg enables boundary lookahead.
func newContextDetector(cfg Config) *detector {
	name := "context-aware"
	if cfg.Lookahead {
		name = "lookahead"
	}
	return newDetector(name, cfg, fitContext, decodeContext)
}

func fitContext(ctx context.Context, name string, cfg Config, trajs []*Trajectory) (model, error) {
	gestureSpecific := name != "monolithic"
	elCfg := core.DefaultErrorDetectorConfig()
	if cfg.ErrorFeatures != nil {
		elCfg.Features = cfg.ErrorFeatures
	}
	if cfg.Window > 0 {
		elCfg.Window = cfg.Window
	}
	if cfg.Arch != 0 {
		elCfg.Arch = cfg.Arch
	}
	if cfg.Epochs > 0 {
		elCfg.Epochs = cfg.Epochs
	}
	if cfg.TrainStride > 0 {
		elCfg.TrainStride = cfg.TrainStride
	}
	elCfg.Seed = cfg.Seed + 7
	elCfg.Verbose = cfg.Verbose

	var lib *core.ErrorLibrary
	var err error
	if gestureSpecific {
		lib, err = core.TrainErrorLibrary(trajs, elCfg)
	} else {
		lib, err = core.TrainMonolithicDetector(trajs, elCfg)
	}
	if err != nil {
		return nil, fmt.Errorf("safemon: fit %s error stage: %w", name, err)
	}

	var gc *core.GestureClassifier
	if gestureSpecific && !cfg.GroundTruthContext {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		gcCfg := core.DefaultGestureClassifierConfig()
		if cfg.GestureFeatures != nil {
			gcCfg.Features = cfg.GestureFeatures
		}
		if cfg.Epochs > 0 {
			gcCfg.Epochs = cfg.Epochs
		}
		if cfg.TrainStride > 0 {
			gcCfg.TrainStride = cfg.TrainStride
		}
		gcCfg.Seed = cfg.Seed
		gcCfg.Verbose = cfg.Verbose
		gc, err = core.TrainGestureClassifier(trajs, gcCfg)
		if err != nil {
			return nil, fmt.Errorf("safemon: fit %s context stage: %w", name, err)
		}
	}

	mon := core.NewMonitor(gc, lib)
	mon.Threshold = cfg.Threshold
	mon.UseGroundTruthGestures = cfg.GroundTruthContext
	if cfg.Lookahead {
		mon.Lookahead = cfg.Chain
		if mon.Lookahead == nil {
			seqs := make([][]int, 0, len(trajs))
			for _, tr := range trajs {
				seqs = append(seqs, tr.GestureSequence())
			}
			if mon.Lookahead, err = gesture.FitMarkovChain(seqs); err != nil {
				return nil, fmt.Errorf("safemon: fit lookahead grammar: %w", err)
			}
		}
	}
	return contextModel{mon}, nil
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

func decodeContext(name string, base Config, data []byte) (Config, model, error) {
	var p contextPayload
	cfg, err := decodePayload(name, data, base, &p, &p.Config)
	if err != nil {
		return cfg, nil, err
	}
	mon, err := core.DecodeMonitor(bytes.NewReader(p.Monitor), rand.New(rand.NewSource(cfg.Seed)))
	if err != nil {
		return cfg, nil, corruptErr("decode", name, err)
	}
	gestureSpecific := name != "monolithic"
	switch {
	case mon.Errors.GestureSpecific != gestureSpecific:
		err = errors.New("gesture-specificity mismatch")
	case gestureSpecific && !cfg.GroundTruthContext && mon.Gestures == nil:
		err = errors.New("classifier-context artifact without a gesture stage")
	case cfg.Lookahead != (name == "lookahead"):
		err = errors.New("lookahead flag disagrees with backend name")
	case cfg.Lookahead && p.Chain == nil:
		err = errors.New("lookahead artifact without a task grammar")
	}
	if err != nil {
		return cfg, nil, corruptErr("validate", name, err)
	}
	if cfg.Lookahead {
		mon.Lookahead, mon.LookaheadBlend = p.Chain, p.Blend
		cfg.Chain = p.Chain
	}
	return cfg, contextModel{mon}, nil
}

// contextModel is the fitted state of a context-family detector.
type contextModel struct{ mon *core.Monitor }

func (m contextModel) payload(cfg persistedConfig) (any, error) {
	var mon bytes.Buffer
	if err := m.mon.Encode(&mon); err != nil {
		return nil, err
	}
	return contextPayload{
		Config:  cfg,
		Monitor: mon.Bytes(),
		Chain:   m.mon.Lookahead,
		Blend:   m.mon.LookaheadBlend,
	}, nil
}

func (m contextModel) session(_ Config, labels []int) (Session, error) {
	st, err := m.mon.NewStream(labels)
	if err != nil {
		return nil, err
	}
	return contextSession{st}, nil
}

// contextSession serves a core stream as a Session.
type contextSession struct{ *core.Stream }

func (s contextSession) Push(f *Frame) (FrameVerdict, error) { return s.Stream.Push(f), nil }
func (contextSession) Close() error                          { return nil }
