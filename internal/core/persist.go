package core

import (
	"bytes"
	"encoding/gob"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"sort"

	"repro/internal/kinematics"
	"repro/internal/nn"
)

// ErrBadMonitorSpec is wrapped by every DecodeMonitor failure caused by a
// corrupt or inconsistent serialized monitor bundle. Decoding validates
// shapes before installing anything, so corrupt input can neither panic nor
// produce a half-populated monitor.
var ErrBadMonitorSpec = errors.New("core: bad monitor spec")

// persistedGestureConfig is GestureClassifierConfig's artifact form. Its
// gob field names are the wire format, so saved bundles keep decoding
// when a config field is renamed.
type persistedGestureConfig struct {
	Features       []int // kinematics.FeatureGroup values
	Window, Stride int
	LSTMUnits      []int
	DenseUnits     int
	Dropout        float64
	Epochs, Batch  int
	LR             float64
	Patience       int
	ValFraction    float64
	TrainStride    int
	Seed           int64
}

func toPersistedGestureConfig(c GestureClassifierConfig) persistedGestureConfig {
	return persistedGestureConfig{
		Features: featureInts(c.Features), Window: c.Window, Stride: c.Stride,
		LSTMUnits: c.LSTMUnits, DenseUnits: c.DenseUnits, Dropout: c.Dropout,
		Epochs: c.Epochs, Batch: c.BatchSize, LR: c.LR, Patience: c.Patience,
		ValFraction: c.ValFraction, TrainStride: c.TrainStride, Seed: c.Seed,
	}
}

func (p persistedGestureConfig) restore() GestureClassifierConfig {
	return GestureClassifierConfig{
		Features: featureSet(p.Features), Window: p.Window, Stride: p.Stride,
		LSTMUnits: p.LSTMUnits, DenseUnits: p.DenseUnits, Dropout: p.Dropout,
		Epochs: p.Epochs, BatchSize: p.Batch, LR: p.LR, Patience: p.Patience,
		ValFraction: p.ValFraction, TrainStride: p.TrainStride, Seed: p.Seed,
	}
}

// persistedErrorConfig is ErrorDetectorConfig's artifact form, kept apart
// for the same reason.
type persistedErrorConfig struct {
	Features       []int
	Window, Stride int
	Arch           int
	Units          []int
	DenseUnits     int
	KernelSize     int
	Dropout        float64
	Epochs, Batch  int
	LR             float64
	Patience       int
	ValFraction    float64
	TrainStride    int
	MinSamples     int
	Balance        bool
	Seed           int64
}

func toPersistedErrorConfig(c ErrorDetectorConfig) persistedErrorConfig {
	return persistedErrorConfig{
		Features: featureInts(c.Features), Window: c.Window, Stride: c.Stride,
		Arch: int(c.Arch), Units: c.Units, DenseUnits: c.DenseUnits,
		KernelSize: c.KernelSize, Dropout: c.Dropout, Epochs: c.Epochs,
		Batch: c.BatchSize, LR: c.LR, Patience: c.Patience,
		ValFraction: c.ValFraction, TrainStride: c.TrainStride,
		MinSamples: c.MinSamples, Balance: c.BalanceClasses, Seed: c.Seed,
	}
}

func (p persistedErrorConfig) restore() ErrorDetectorConfig {
	return ErrorDetectorConfig{
		Features: featureSet(p.Features), Window: p.Window, Stride: p.Stride,
		Arch: ErrorArch(p.Arch), Units: p.Units, DenseUnits: p.DenseUnits,
		KernelSize: p.KernelSize, Dropout: p.Dropout, Epochs: p.Epochs,
		BatchSize: p.Batch, LR: p.LR, Patience: p.Patience,
		ValFraction: p.ValFraction, TrainStride: p.TrainStride,
		MinSamples: p.MinSamples, BalanceClasses: p.Balance, Seed: p.Seed,
	}
}

func featureInts(fs kinematics.FeatureSet) []int {
	out := make([]int, len(fs))
	for i, g := range fs {
		out[i] = int(g)
	}
	return out
}

func featureSet(ints []int) kinematics.FeatureSet {
	out := make(kinematics.FeatureSet, len(ints))
	for i, v := range ints {
		out[i] = kinematics.FeatureGroup(v)
	}
	return out
}

// checkFeatureInts rejects serialized feature sets naming unknown groups
// (which would silently project zero-dimensional windows).
func checkFeatureInts(ints []int) error {
	if _, err := kinematics.ParseFeatureSet(ints); err != nil {
		return fmt.Errorf("%w: %v", ErrBadMonitorSpec, err)
	}
	return nil
}

// checkStandardizer validates a persisted mean/std pair against the feature
// dimensionality (Transform indexes Std through Mean's range, so a length
// mismatch would panic at serve time if admitted here).
func checkStandardizer(mean, std []float64, dim int, stage string) error {
	if len(mean) == 0 && len(std) == 0 {
		return nil
	}
	if len(mean) != len(std) || len(mean) != dim {
		return fmt.Errorf("%w: %s standardizer has %d/%d values, want %d", ErrBadMonitorSpec, stage, len(mean), len(std), dim)
	}
	for _, s := range std {
		if s <= 0 {
			return fmt.Errorf("%w: %s standardizer has non-positive std", ErrBadMonitorSpec, stage)
		}
	}
	return nil
}

// persistedMonitor is the gob wire format of a trained monitor bundle:
// both stages' networks, standardizers, and configurations, so a monitor
// trained offline can be deployed next to the robot without retraining.
type persistedMonitor struct {
	Threshold  float64
	UseGT      bool
	HasGesture bool

	GestureConfig persistedGestureConfig
	GestureMean   []float64
	GestureStd    []float64
	GestureNet    []byte

	ErrorConfig     persistedErrorConfig
	ErrorMean       []float64
	ErrorStd        []float64
	GestureSpecific bool
	HeadGestures    []int
	HeadNets        [][]byte
	GlobalNet       []byte
}

func encodeNet(n *nn.Network) ([]byte, error) {
	if n == nil {
		return nil, nil
	}
	var buf bytes.Buffer
	if err := n.Encode(&buf); err != nil {
		return nil, err
	}
	return buf.Bytes(), nil
}

func decodeNet(data []byte, rng *rand.Rand) (*nn.Network, error) {
	if len(data) == 0 {
		return nil, nil
	}
	return nn.DecodeNetwork(bytes.NewReader(data), rng)
}

// Encode serializes the monitor bundle. No training state is persisted.
func (m *Monitor) Encode(w io.Writer) error {
	p := persistedMonitor{
		Threshold: m.Threshold,
		UseGT:     m.UseGroundTruthGestures,
	}
	if m.Gestures != nil {
		p.HasGesture = true
		p.GestureConfig = toPersistedGestureConfig(m.Gestures.Config)
		if m.Gestures.Standardizer != nil {
			p.GestureMean = m.Gestures.Standardizer.Mean
			p.GestureStd = m.Gestures.Standardizer.Std
		}
		data, err := encodeNet(m.Gestures.Net)
		if err != nil {
			return fmt.Errorf("core: encode gesture net: %w", err)
		}
		p.GestureNet = data
	}
	if m.Errors == nil {
		return fmt.Errorf("core: cannot persist monitor without an error library")
	}
	p.ErrorConfig = toPersistedErrorConfig(m.Errors.Config)
	if m.Errors.Standardizer != nil {
		p.ErrorMean = m.Errors.Standardizer.Mean
		p.ErrorStd = m.Errors.Standardizer.Std
	}
	p.GestureSpecific = m.Errors.GestureSpecific
	// Heads go out in ascending gesture order, so one monitor always
	// encodes to the same bytes.
	heads := make([]int, 0, len(m.Errors.PerGesture))
	for g := range m.Errors.PerGesture {
		heads = append(heads, g)
	}
	sort.Ints(heads)
	for _, g := range heads {
		data, err := encodeNet(m.Errors.PerGesture[g])
		if err != nil {
			return fmt.Errorf("core: encode head %d: %w", g, err)
		}
		p.HeadGestures = append(p.HeadGestures, g)
		p.HeadNets = append(p.HeadNets, data)
	}
	global, err := encodeNet(m.Errors.Global)
	if err != nil {
		return fmt.Errorf("core: encode global head: %w", err)
	}
	p.GlobalNet = global
	return gob.NewEncoder(w).Encode(p)
}

// DecodeMonitor reconstructs a monitor bundle written by Encode. rng seeds
// stochastic layers in the restored networks (only relevant if retrained).
// Corrupt input yields an error wrapping ErrBadMonitorSpec (or the nn
// package's ErrBadNetworkSpec); it never panics and never returns a
// partially-populated monitor.
func DecodeMonitor(r io.Reader, rng *rand.Rand) (*Monitor, error) {
	var p persistedMonitor
	if err := gob.NewDecoder(r).Decode(&p); err != nil {
		return nil, fmt.Errorf("%w: decode: %v", ErrBadMonitorSpec, err)
	}
	m := &Monitor{Threshold: p.Threshold, UseGroundTruthGestures: p.UseGT}
	if p.HasGesture {
		if err := checkFeatureInts(p.GestureConfig.Features); err != nil {
			return nil, err
		}
		cfg := p.GestureConfig.restore()
		if cfg.Window <= 0 {
			return nil, fmt.Errorf("%w: gesture window %d", ErrBadMonitorSpec, cfg.Window)
		}
		if err := checkStandardizer(p.GestureMean, p.GestureStd, cfg.Features.Dim(), "gesture"); err != nil {
			return nil, err
		}
		net, err := decodeNet(p.GestureNet, rng)
		if err != nil {
			return nil, err
		}
		m.Gestures = &GestureClassifier{
			Net:    net,
			Config: cfg,
			Standardizer: &kinematics.Standardizer{
				Mean: p.GestureMean, Std: p.GestureStd,
			},
		}
	}
	if err := checkFeatureInts(p.ErrorConfig.Features); err != nil {
		return nil, err
	}
	elCfg := p.ErrorConfig.restore()
	if elCfg.Window <= 0 {
		return nil, fmt.Errorf("%w: error window %d", ErrBadMonitorSpec, elCfg.Window)
	}
	if err := checkStandardizer(p.ErrorMean, p.ErrorStd, elCfg.Features.Dim(), "error"); err != nil {
		return nil, err
	}
	if len(p.HeadGestures) != len(p.HeadNets) {
		return nil, fmt.Errorf("%w: %d head gestures but %d head nets", ErrBadMonitorSpec, len(p.HeadGestures), len(p.HeadNets))
	}
	lib := &ErrorLibrary{
		Config:          elCfg,
		GestureSpecific: p.GestureSpecific,
		Standardizer: &kinematics.Standardizer{
			Mean: p.ErrorMean, Std: p.ErrorStd,
		},
		PerGesture: map[int]*nn.Network{},
	}
	for i, g := range p.HeadGestures {
		net, err := decodeNet(p.HeadNets[i], rng)
		if err != nil {
			return nil, err
		}
		lib.PerGesture[g] = net
	}
	global, err := decodeNet(p.GlobalNet, rng)
	if err != nil {
		return nil, err
	}
	if global == nil && len(lib.PerGesture) == 0 {
		return nil, fmt.Errorf("%w: error library has no trained heads", ErrBadMonitorSpec)
	}
	lib.Global = global
	if err := checkHeadShapes(lib); err != nil {
		return nil, err
	}
	m.Errors = lib
	return m, nil
}

// checkHeadShapes refuses a library whose heads differ in layer shapes: a
// stream runs every head in one workspace (see errHeadScorer).
func checkHeadShapes(lib *ErrorLibrary) error {
	first := lib.Global
	for _, net := range lib.PerGesture {
		if net == nil {
			continue
		}
		if first == nil {
			first = net
		} else if !first.SameShape(net) {
			return fmt.Errorf("%w: error heads differ in layer shapes", ErrBadMonitorSpec)
		}
	}
	return nil
}
