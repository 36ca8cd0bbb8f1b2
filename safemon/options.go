package safemon

// Config collects every tunable a backend can honor. Zero values mean
// "backend default"; backends ignore knobs they have no use for.
type Config struct {
	// Threshold is the unsafe-score alert threshold (default 0.5).
	Threshold float64
	// GroundTruthContext switches context from the gesture classifier to
	// the trajectory's annotations (the paper's perfect-boundary mode).
	GroundTruthContext bool
	// Lookahead enables boundary-lookahead pre-activation, with the task
	// grammar fitted from the training set. The "lookahead" backend sets
	// it; artifacts carry it.
	Lookahead bool
	// GestureFeatures / ErrorFeatures select the kinematic variables of
	// the two stages (nil = backend default).
	GestureFeatures FeatureSet
	ErrorFeatures   FeatureSet
	// Window overrides the error-stage window length.
	Window int
	// Arch overrides the error-head architecture.
	Arch ErrorArch
	// Epochs and TrainStride override training effort (quick runs).
	Epochs      int
	TrainStride int
	// Seed makes training deterministic (default 1).
	Seed int64
	// Atoms is the SDSDL dictionary size.
	Atoms int
	// Timing makes Run measure per-frame compute, at the cost of traces
	// (and therefore reports) no longer being bit-reproducible.
	Timing bool
}

// Option mutates a Config; pass options to New or Open.
type Option func(*Config)

func newConfig(opts []Option) Config {
	cfg := Config{Threshold: 0.5, Seed: 1}
	for _, o := range opts {
		o(&cfg)
	}
	return cfg
}

// WithThreshold sets the unsafe-score alert threshold.
func WithThreshold(t float64) Option { return func(c *Config) { c.Threshold = t } }

// WithGroundTruthContext selects perfect gesture boundaries: the
// operational context comes from trajectory annotations instead of the
// classifier. Sessions then require WithSessionLabels.
func WithGroundTruthContext() Option { return func(c *Config) { c.GroundTruthContext = true } }

// WithFeatures selects the gesture-stage (context) feature subset.
func WithFeatures(fs FeatureSet) Option { return func(c *Config) { c.GestureFeatures = fs } }

// WithErrorFeatures selects the error-stage feature subset.
func WithErrorFeatures(fs FeatureSet) Option { return func(c *Config) { c.ErrorFeatures = fs } }

// WithWindow sets the error-stage sliding-window length.
func WithWindow(n int) Option { return func(c *Config) { c.Window = n } }

// WithArch selects the error-head architecture (ArchConv, ArchLSTM, ArchMLP).
func WithArch(a ErrorArch) Option { return func(c *Config) { c.Arch = a } }

// WithEpochs overrides the training epochs of both neural stages.
func WithEpochs(n int) Option { return func(c *Config) { c.Epochs = n } }

// WithTrainStride subsamples training windows for faster fitting.
func WithTrainStride(n int) Option { return func(c *Config) { c.TrainStride = n } }

// WithSeed fixes the training seed.
func WithSeed(s int64) Option { return func(c *Config) { c.Seed = s } }

// WithAtoms sets the SDSDL dictionary size.
func WithAtoms(n int) Option { return func(c *Config) { c.Atoms = n } }

// WithTiming makes Run measure mean per-frame compute time (Table VIII's
// computation-time column). Timed traces are not bit-reproducible.
func WithTiming() Option { return func(c *Config) { c.Timing = true } }
