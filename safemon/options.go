package safemon

// Config collects every tunable a backend can honor. Zero values mean
// "backend default"; backends ignore knobs they have no use for.
type Config struct {
	// Threshold is the unsafe-score alert threshold (default 0.5).
	Threshold float64
	// GroundTruthContext switches context from the gesture classifier to
	// the trajectory's annotations (the paper's perfect-boundary mode).
	GroundTruthContext bool
	// Lookahead enables boundary-lookahead pre-activation; Chain, when
	// non-nil, overrides the grammar fitted from the training set.
	Lookahead bool
	Chain     *MarkovChain
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
	// EnvelopeMargin widens the static envelope (default 0.5 σ).
	EnvelopeMargin float64
	// Atoms is the SDSDL dictionary size; SkipLag the SkipChain lag.
	Atoms   int
	SkipLag int
	// CascadeFront and CascadeInner name the two stages of the cascade
	// backend: a cheap front filter scoring every frame ("envelope" or
	// "sdsdl", default envelope) and the expensive nn-backed detector it
	// gates ("context-aware", "lookahead" or "monolithic", default
	// context-aware).
	CascadeFront string
	CascadeInner string
	// CascadeArm is the front-filter score at which the cascade arms the
	// inner detector (default 0.02); CascadeHoldoff is how many frames the
	// inner detector keeps running after the last arming frame (default
	// 30, one second at 30 Hz).
	CascadeArm     float64
	CascadeHoldoff int
	// Timing makes Run measure per-frame compute, at the cost of traces
	// (and therefore reports) no longer being bit-reproducible.
	Timing bool
	// Verbose receives training progress lines when non-nil.
	Verbose func(string)
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

// WithLookahead enables boundary-lookahead pre-activation of the most
// likely next gesture's error head. chain may be nil, in which case the
// task grammar is fitted from the training trajectories during Fit.
func WithLookahead(chain *MarkovChain) Option {
	return func(c *Config) {
		c.Lookahead = true
		c.Chain = chain
	}
}

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

// WithEnvelopeMargin widens the static envelope by m training σ.
func WithEnvelopeMargin(m float64) Option { return func(c *Config) { c.EnvelopeMargin = m } }

// WithAtoms sets the SDSDL dictionary size.
func WithAtoms(n int) Option { return func(c *Config) { c.Atoms = n } }

// WithSkipLag sets the SkipChain skip-transition lag in frames.
func WithSkipLag(n int) Option { return func(c *Config) { c.SkipLag = n } }

// WithCascadeStages selects the cascade backend's two stages by registry
// name: front is the cheap always-on filter ("envelope" or "sdsdl"),
// inner the gated nn-backed detector ("context-aware", "lookahead" or
// "monolithic"). Empty strings keep the defaults (envelope gating
// context-aware).
func WithCascadeStages(front, inner string) Option {
	return func(c *Config) {
		c.CascadeFront = front
		c.CascadeInner = inner
	}
}

// WithCascadeArm sets the front-filter score at which the cascade arms its
// inner detector. Front scores are the front backend's own scale (envelope
// violation magnitude, not a probability), so arm thresholds near zero are
// typical.
func WithCascadeArm(score float64) Option { return func(c *Config) { c.CascadeArm = score } }

// WithCascadeHoldoff sets how many frames the inner detector keeps running
// after the last frame whose front score reached the arm threshold.
func WithCascadeHoldoff(frames int) Option { return func(c *Config) { c.CascadeHoldoff = frames } }

// WithTiming makes Run measure mean per-frame compute time (Table VIII's
// computation-time column). Timed traces are not bit-reproducible.
func WithTiming() Option { return func(c *Config) { c.Timing = true } }

// WithVerbose routes training progress lines to fn.
func WithVerbose(fn func(string)) Option { return func(c *Config) { c.Verbose = fn } }
