package core

import (
	"fmt"
	"math/rand"
	"sort"

	"repro/internal/dataset"
	"repro/internal/kinematics"
	"repro/internal/nn"
	"repro/internal/stats"
)

// ErrorArch selects the erroneous-gesture detector architecture ablated in
// Tables V and VI.
type ErrorArch int

// Architectures.
const (
	ArchConv ErrorArch = iota + 1
	ArchLSTM
	ArchMLP
)

// String returns the table name of the architecture.
func (a ErrorArch) String() string {
	switch a {
	case ArchConv:
		return "Conv"
	case ArchLSTM:
		return "LSTM"
	case ArchMLP:
		return "MLP"
	default:
		return fmt.Sprintf("ErrorArch(%d)", int(a))
	}
}

// ErrorDetectorConfig configures the erroneous-gesture detection stage
// (Equation 3 of the paper).
type ErrorDetectorConfig struct {
	// Features selects the kinematic variable subset (Tables V/VI ablate
	// All vs C,R,G vs C,G).
	Features kinematics.FeatureSet
	// Window and Stride control sample extraction; the paper uses
	// window=5 stride=1 for Suturing and window=10 stride=1 for Block
	// Transfer.
	Window, Stride int
	// Arch selects Conv1D, LSTM, or MLP heads.
	Arch ErrorArch
	// Units are the layer widths (conv channels or LSTM hidden sizes).
	Units []int
	// DenseUnits is the fully connected head width.
	DenseUnits int
	// KernelSize is the Conv1D kernel length.
	KernelSize int
	Dropout    float64
	// Epochs, BatchSize, LR, Patience configure training; the paper uses
	// low initial learning rates (1e-4..1e-3) with step decay and early
	// stopping.
	Epochs, BatchSize int
	LR                float64
	Patience          int
	ValFraction       float64
	// TrainStride optionally subsamples training windows.
	TrainStride int
	// MinSamples is the minimum number of windows (with both classes
	// present) needed to train a gesture-specific head; gestures below
	// the threshold fall back to the library's default scorer.
	MinSamples int
	// BalanceClasses applies inverse-frequency class weights.
	BalanceClasses bool
	Seed           int64
}

// DefaultErrorDetectorConfig returns a CPU-scale 1D-CNN configuration of
// the paper's best-performing setup for Suturing (C,R,G features,
// window=5, stride=1, lr 1e-4-scale).
func DefaultErrorDetectorConfig() ErrorDetectorConfig {
	return ErrorDetectorConfig{
		Features:       kinematics.CRG(),
		Window:         5,
		Stride:         1,
		Arch:           ArchConv,
		Units:          []int{24, 12},
		DenseUnits:     12,
		KernelSize:     3,
		Dropout:        0.1,
		Epochs:         10,
		BatchSize:      32,
		LR:             2e-3,
		Patience:       3,
		ValFraction:    0.12,
		TrainStride:    2,
		MinSamples:     40,
		BalanceClasses: true,
		Seed:           7,
	}
}

// buildErrorNet constructs one binary safe/unsafe head.
func buildErrorNet(rng *rand.Rand, cfg ErrorDetectorConfig) *nn.Network {
	switch cfg.Arch {
	case ArchLSTM:
		return nn.BuildStackedLSTM(rng, nn.StackedLSTMConfig{
			InputDim:   cfg.Features.Dim(),
			LSTMUnits:  cfg.Units,
			DenseUnits: cfg.DenseUnits,
			NumClasses: 2,
			Dropout:    cfg.Dropout,
		})
	case ArchMLP:
		return nn.BuildMLP(rng, nn.MLPConfig{
			InputDim:   cfg.Features.Dim() * cfg.Window,
			Hidden:     cfg.Units,
			NumClasses: 2,
			Dropout:    cfg.Dropout,
		})
	default:
		return nn.BuildConv1D(rng, nn.Conv1DConfig{
			InputDim:   cfg.Features.Dim(),
			ConvUnits:  cfg.Units,
			KernelSize: cfg.KernelSize,
			DenseUnits: cfg.DenseUnits,
			NumClasses: 2,
			Dropout:    cfg.Dropout,
		})
	}
}

// ErrorLibrary is the trained library of erroneous-gesture classifiers:
// one binary head per gesture class (gesture-specific mode), or a single
// shared head (the non-context-specific baseline).
type ErrorLibrary struct {
	Config       ErrorDetectorConfig
	Standardizer *kinematics.Standardizer
	// PerGesture maps gesture index -> binary classifier. Nil entries
	// mean the gesture had insufficient data.
	PerGesture map[int]*nn.Network
	// Global is the shared classifier used in non-gesture-specific mode
	// and as a fallback for gestures without a dedicated head.
	Global *nn.Network
	// GestureSpecific reports which mode the library was trained in.
	GestureSpecific bool
}

// trainBinary fits one safe/unsafe head on windows.
func trainBinary(rng *rand.Rand, cfg ErrorDetectorConfig, windows []dataset.Window) (*nn.Network, error) {
	trainW, valW := dataset.HoldoutSplit(windows, cfg.ValFraction, rng)
	safeW, unsafeW := 1.0, 1.0
	if cfg.BalanceClasses {
		safeW, unsafeW = dataset.BalanceWeights(trainW)
	}
	toSamples := func(ws []dataset.Window) []nn.Sample {
		out := make([]nn.Sample, len(ws))
		for i, w := range ws {
			y, wt := 0, safeW
			if w.Unsafe {
				y, wt = 1, unsafeW
			}
			out[i] = nn.Sample{X: w.X, Y: y, Weight: wt}
		}
		return out
	}
	net := buildErrorNet(rng, cfg)
	_, err := net.Fit(toSamples(trainW), toSamples(valW), nn.TrainConfig{
		Epochs:     cfg.Epochs,
		BatchSize:  cfg.BatchSize,
		LR:         cfg.LR,
		DecayEvery: 3,
		DecayRate:  0.6,
		ClipNorm:   5,
		Patience:   cfg.Patience,
		Rng:        rng,
	})
	if err != nil {
		return nil, err
	}
	return net, nil
}

// hasBothClasses reports whether the window set contains safe and unsafe
// examples.
func hasBothClasses(ws []dataset.Window) bool {
	n := dataset.CountUnsafe(ws)
	return n > 0 && n < len(ws)
}

// TrainErrorLibrary trains the gesture-specific library on frame-labeled
// trajectories. Training groups windows by their ground-truth gesture
// ("we trained our erroneous gesture detection system on individual
// gestures, assuming perfect gesture boundaries"). A global fallback head
// is trained on all windows for gestures with insufficient data.
func TrainErrorLibrary(trajs []*kinematics.Trajectory, cfg ErrorDetectorConfig) (*ErrorLibrary, error) {
	lib, windows, err := prepLibrary(trajs, cfg)
	if err != nil {
		return nil, err
	}
	lib.GestureSpecific = true
	lib.PerGesture = map[int]*nn.Network{}
	rng := rand.New(rand.NewSource(cfg.Seed))

	byG := dataset.ByGesture(windows)
	// Train heads in ascending gesture order: the shared rng makes map
	// iteration order part of the result, so a fixed order keeps training
	// deterministic for a fixed seed.
	gs := make([]int, 0, len(byG))
	for g := range byG {
		gs = append(gs, g)
	}
	sort.Ints(gs)
	for _, g := range gs {
		ws := byG[g]
		if len(ws) < cfg.MinSamples || !hasBothClasses(ws) {
			continue
		}
		net, err := trainBinary(rng, cfg, ws)
		if err != nil {
			return nil, fmt.Errorf("core: train error head for gesture %d: %w", g, err)
		}
		lib.PerGesture[g] = net
	}
	// Global fallback over everything.
	if hasBothClasses(windows) {
		global, err := trainBinary(rng, cfg, windows)
		if err != nil {
			return nil, fmt.Errorf("core: train global fallback: %w", err)
		}
		lib.Global = global
	}
	return lib, nil
}

// TrainMonolithicDetector trains the non-context-specific baseline: a
// single binary classifier over all windows with no notion of gesture.
func TrainMonolithicDetector(trajs []*kinematics.Trajectory, cfg ErrorDetectorConfig) (*ErrorLibrary, error) {
	lib, windows, err := prepLibrary(trajs, cfg)
	if err != nil {
		return nil, err
	}
	lib.GestureSpecific = false
	if !hasBothClasses(windows) {
		return nil, fmt.Errorf("core: monolithic detector needs both classes")
	}
	rng := rand.New(rand.NewSource(cfg.Seed))
	global, err := trainBinary(rng, cfg, windows)
	if err != nil {
		return nil, err
	}
	lib.Global = global
	return lib, nil
}

// prepLibrary fits the standardizer and extracts training windows.
func prepLibrary(trajs []*kinematics.Trajectory, cfg ErrorDetectorConfig) (*ErrorLibrary, []dataset.Window, error) {
	if cfg.Window <= 0 || cfg.Stride <= 0 {
		return nil, nil, fmt.Errorf("core: bad window config %d/%d", cfg.Window, cfg.Stride)
	}
	trainStride := cfg.TrainStride
	if trainStride <= 0 {
		trainStride = cfg.Stride
	}
	windows, std, err := dataset.FitSlide(trajs, dataset.Config{
		Features: cfg.Features, Size: cfg.Window, Stride: trainStride,
	})
	if err != nil {
		return nil, nil, err
	}
	if len(windows) == 0 {
		return nil, nil, ErrNoData
	}
	return &ErrorLibrary{Config: cfg, Standardizer: std}, windows, nil
}

// Score returns the unsafe probability of a standardized window under the
// classifier selected by the gesture context. Gestures with no dedicated
// head use the global fallback; with no fallback either, the sample is
// scored safe (0).
func (el *ErrorLibrary) Score(gestureIdx int, window [][]float64) float64 {
	var net *nn.Network
	if el.GestureSpecific {
		net = el.PerGesture[gestureIdx]
	}
	if net == nil {
		net = el.Global
	}
	if net == nil {
		return 0
	}
	return net.Predict(window)[1]
}

// EvalPerGesture evaluates each gesture head on held-out trajectories with
// perfect gesture boundaries, returning per-gesture confusion and AUC —
// the Table VII breakdown.
type GestureEval struct {
	Gesture   int
	TestSize  int
	PctErrors float64
	AUC       float64
	Confusion stats.BinaryConfusion
}

// EvalPerGesture computes Table VII rows on test trajectories.
func (el *ErrorLibrary) EvalPerGesture(trajs []*kinematics.Trajectory, threshold float64) ([]GestureEval, error) {
	windows, err := dataset.Slide(trajs, dataset.Config{
		Features: el.Config.Features, Size: el.Config.Window, Stride: el.Config.Stride,
		Standardizer: el.Standardizer,
	})
	if err != nil {
		return nil, err
	}
	byG := dataset.ByGesture(windows)
	gestures := make([]int, 0, len(byG))
	for g := range byG {
		gestures = append(gestures, g)
	}
	sort.Ints(gestures)
	var out []GestureEval
	for _, g := range gestures {
		ws := byG[g]
		ev := GestureEval{Gesture: g, TestSize: len(ws)}
		scores := make([]float64, len(ws))
		labels := make([]bool, len(ws))
		for i, w := range ws {
			scores[i] = el.Score(g, w.X)
			labels[i] = w.Unsafe
			ev.Confusion.Add(scores[i] >= threshold, w.Unsafe)
		}
		ev.PctErrors = float64(dataset.CountUnsafe(ws)) / float64(len(ws))
		ev.AUC = stats.AUC(scores, labels)
		out = append(out, ev)
	}
	return out, nil
}

// OverallEval aggregates binary metrics over all test windows with perfect
// gesture boundaries — the Table V/VI ablation numbers.
func (el *ErrorLibrary) OverallEval(trajs []*kinematics.Trajectory, threshold float64) (stats.BinaryConfusion, float64, error) {
	windows, err := dataset.Slide(trajs, dataset.Config{
		Features: el.Config.Features, Size: el.Config.Window, Stride: el.Config.Stride,
		Standardizer: el.Standardizer,
	})
	if err != nil {
		return stats.BinaryConfusion{}, 0, err
	}
	var conf stats.BinaryConfusion
	scores := make([]float64, len(windows))
	labels := make([]bool, len(windows))
	for i, w := range windows {
		g := w.Gesture
		if !el.GestureSpecific {
			g = -1
		}
		scores[i] = el.Score(g, w.X)
		labels[i] = w.Unsafe
		conf.Add(scores[i] >= threshold, w.Unsafe)
	}
	return conf, stats.AUC(scores, labels), nil
}
