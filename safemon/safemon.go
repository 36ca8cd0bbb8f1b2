// Package safemon is the public façade of the context-aware surgical
// safety-monitoring reproduction (Yasar & Alemzadeh, DSN 2020). It hides
// the internal training and wiring details behind four pieces:
//
//   - Detector: one interface for every detection backend — the paper's
//     two-stage context-aware monitor, its boundary-lookahead extension,
//     the non-context-specific (monolithic) baseline, the static safety
//     envelope, and the SkipChain / SDSDL classifier baselines, plus the
//     cascade in which the static envelope gates the context-aware
//     monitor.
//     Backends are selected by name through a registry (Open, Register,
//     Backends). One shell implements the interface for every built-in
//     backend — fit and load state, artifacts, session options — so each
//     backend contributes only its training, artifact payload and bare
//     session; LoadDetector restores any of them through that shell's
//     Load.
//   - Functional options: New(WithThreshold(0.7), WithGroundTruthContext(),
//     ...) builds a configured detector without struct-field poking.
//   - Session: the constant-latency streaming interface — push one
//     kinematics frame, get one FrameVerdict. A session serves one
//     trajectory, from NewSession to Close; Prepare, called between
//     frames, moves the frame-independent part of the next Push off the
//     verdict path.
//   - Runner: a concurrent batch evaluator that fans trajectories across
//     workers, scores each through Detector.Run, and merges the traces
//     into a PipelineReport byte-identical to the sequential path.
//
// Quickstart:
//
//	det := safemon.New(safemon.WithThreshold(0.6))
//	if err := det.Fit(ctx, trainTrajs); err != nil { ... }
//
//	sess, _ := det.NewSession()
//	for i := range traj.Frames {
//		v, _ := sess.Push(&traj.Frames[i])
//		if v.Unsafe { fmt.Printf("alert at frame %d (score %.2f)\n", v.FrameIndex, v.Score) }
//	}
//
//	rep, _ := (&safemon.Runner{Detector: det}).Run(ctx, testTrajs, nil)
//	fmt.Println(rep.Render())
package safemon

import (
	"context"
	"errors"
	"io"

	"repro/internal/core"
	"repro/internal/kinematics"
	"repro/safemon/guard"
	"repro/safemon/ledger"
)

// Core data types re-exported so callers need only this package.
type (
	// Trajectory is a fixed-rate kinematics time series with optional
	// per-frame gesture and safety labels.
	Trajectory = kinematics.Trajectory
	// Frame is one 38-variable kinematics sample.
	Frame = kinematics.Frame
	// FeatureSet selects a subset of kinematic variables.
	FeatureSet = kinematics.FeatureSet
	// FrameVerdict is a detector's output for one frame.
	FrameVerdict = core.FrameVerdict
	// Trace is a detector's full output over one trajectory.
	Trace = core.Trace
	// PipelineReport aggregates accuracy and timeliness metrics over a
	// test set (Tables VIII/IX of the paper).
	PipelineReport = core.PipelineReport
	// ErrorTruth is the ground truth for one erroneous-gesture instance.
	ErrorTruth = core.ErrorTruth
	// ErrorArch selects the erroneous-gesture head architecture.
	ErrorArch = core.ErrorArch
)

// Error-head architectures (Tables V/VI ablation).
const (
	ArchConv = core.ArchConv
	ArchLSTM = core.ArchLSTM
	ArchMLP  = core.ArchMLP
)

// Feature subsets used across the paper's tables.
func AllFeatures() FeatureSet { return kinematics.AllFeatures() }

// CRG returns the Cartesian + rotation + grasper subset (best Suturing set).
func CRG() FeatureSet { return kinematics.CRG() }

// CG returns the Cartesian + grasper subset (Block Transfer set).
func CG() FeatureSet { return kinematics.CG() }

// TruthFromLabels derives ErrorTruth entries from a frame-labeled
// trajectory (onset = segment start).
func TruthFromLabels(traj *Trajectory) []ErrorTruth { return core.TruthFromLabels(traj) }

// ErrNotFitted is returned when Run or NewSession is called before Fit.
var ErrNotFitted = errors.New("safemon: detector not fitted")

// Info describes a constructed detector.
type Info struct {
	// Name is the registry name of the backend.
	Name string
	// Threshold is the unsafe-score alert threshold.
	Threshold float64
	// PredictsContext reports whether traces carry classifier-predicted
	// gesture context (enables the gesture-accuracy metric).
	PredictsContext bool
	// Timing reports whether Run measures per-frame compute time.
	Timing bool
}

// Detector is the unified detection interface every backend implements.
//
// The lifecycle is Fit once on labeled training trajectories — or Load an
// artifact trained elsewhere — then any mix of batch Run calls and
// streaming Sessions; all post-Fit methods are safe for concurrent use.
type Detector interface {
	// Info reports the backend's name and evaluation parameters.
	Info() Info
	// Fit trains the backend on labeled trajectories.
	Fit(ctx context.Context, trajs []*Trajectory) error
	// Run scores one trajectory end to end. It is defined as the replay
	// of the trajectory through a fresh Session, so batch and streaming
	// verdicts are identical by construction.
	Run(ctx context.Context, traj *Trajectory) (*Trace, error)
	// NewSession opens a streaming session.
	NewSession(opts ...SessionOption) (Session, error)
	// Save writes the detector's full fitted state — trained networks,
	// baseline model parameters, configuration, thresholds — as a
	// versioned, checksummed artifact (see LoadDetector). It fails with
	// ErrNotFitted before Fit.
	Save(w io.Writer) error
	// Load restores fitted state from an artifact written by Save on the
	// same backend, making the detector ready to serve without Fit. It
	// fails with ErrAlreadyFitted on a fitted detector and with a typed
	// *ArtifactError on corrupt input; after a failed Load the detector
	// refuses sessions with an error wrapping that *ArtifactError.
	Load(r io.Reader) error
}

// Session is the constant-latency online interface: feed one frame at a
// time and receive a verdict. Sessions are single-goroutine objects and
// one-shot: a session serves one stream from its first frame, and a new
// stream opens a new session, so no state crosses from one trajectory
// into another.
type Session interface {
	// Push consumes one frame and returns its verdict.
	Push(f *Frame) (FrameVerdict, error)
	// Prepare does the part of the next Push that does not depend on its
	// frame, so a caller that idles between frames can take that work
	// off the verdict path; safemond calls it after each verdict it
	// sends. Push returns the same verdict with or without it, and runs
	// whatever was not prepared itself, so callers that never call it
	// lose nothing. Calling it twice before a Push is calling it once.
	// Backends with nothing to prepare make it a no-op.
	Prepare()
	// Close releases the session.
	Close() error
}

// SessionOption configures one streaming session.
type SessionOption func(*sessionConfig)

type sessionConfig struct {
	groundTruth   []int
	guardPolicy   *guard.Policy
	ledger        *ledger.Appender
	ledgerBackend string
	ledgerModel   string
}

// WithSessionLabels supplies per-frame ground-truth gesture labels to a
// session. Required by backends built WithGroundTruthContext; ignored by
// backends that infer their own context.
func WithSessionLabels(labels []int) SessionOption {
	return func(sc *sessionConfig) { sc.groundTruth = labels }
}

func applySessionOptions(opts []SessionOption) sessionConfig {
	var sc sessionConfig
	for _, o := range opts {
		o(&sc)
	}
	return sc
}

// New builds the paper's context-aware monitor with the given options —
// the default, recommended backend. Open selects the others by name;
// Open("lookahead", ...) is the one way to build the boundary-lookahead
// variant.
func New(opts ...Option) Detector {
	return newContextDetector(newConfig(opts))
}
