package safemon

import (
	"context"
	"fmt"
	"runtime"
	"sync"

	"repro/internal/core"
)

// Runner evaluates a fitted detector over a batch of trajectories
// concurrently: trajectories fan out across Workers goroutines, each
// scoring one trajectory at a time through Detector.Run (a fresh
// session), and the resulting traces are merged into a PipelineReport in
// trajectory order. Because every trajectory gets its own session and
// trace aggregation is deterministic, a concurrent run produces a report
// identical to the sequential one (as long as the detector was built
// without WithTiming).
type Runner struct {
	// Detector is the fitted backend to evaluate.
	Detector Detector
	// Workers caps the fan-out; <= 0 means GOMAXPROCS.
	Workers int
}

// TrajectoryError is the error type Traces and Run return when scoring a
// trajectory fails: it carries the index of the offending trajectory so
// batch callers can retry, skip, or report it without parsing the message.
// Use errors.As to recover it from a wrapped chain.
type TrajectoryError struct {
	// Index is the position of the failing trajectory in the input slice.
	Index int
	// Err is the underlying session or push error.
	Err error
}

func (e *TrajectoryError) Error() string {
	return fmt.Sprintf("safemon: trajectory %d: %v", e.Index, e.Err)
}

// Unwrap exposes the underlying error to errors.Is / errors.As.
func (e *TrajectoryError) Unwrap() error { return e.Err }

// Traces scores every trajectory, returning traces index-aligned with the
// input. The first worker error cancels the remaining work and is returned
// as a *TrajectoryError identifying the trajectory that caused it.
func (r *Runner) Traces(ctx context.Context, trajs []*Trajectory) ([]*Trace, error) {
	if r.Detector == nil {
		return nil, fmt.Errorf("safemon: Runner has no detector")
	}
	workers := r.Workers
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > len(trajs) {
		workers = len(trajs)
	}
	if workers <= 1 {
		return r.sequentialTraces(ctx, trajs)
	}

	ctx, cancel := context.WithCancel(ctx)
	defer cancel()
	traces := make([]*Trace, len(trajs))
	jobs := make(chan int)
	var wg sync.WaitGroup
	var mu sync.Mutex
	var firstErr error
	fail := func(err error) {
		mu.Lock()
		if firstErr == nil {
			firstErr = err
			cancel()
		}
		mu.Unlock()
	}

	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for idx := range jobs {
				trace, err := r.Detector.Run(ctx, trajs[idx])
				if err != nil {
					fail(&TrajectoryError{Index: idx, Err: err})
					return
				}
				traces[idx] = trace
			}
		}()
	}
feed:
	for i := range trajs {
		select {
		case jobs <- i:
		case <-ctx.Done():
			break feed
		}
	}
	close(jobs)
	wg.Wait()
	if firstErr != nil {
		return nil, firstErr
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	return traces, nil
}

// sequentialTraces is the single-worker path (also used as the reference
// in the Runner determinism test).
func (r *Runner) sequentialTraces(ctx context.Context, trajs []*Trajectory) ([]*Trace, error) {
	traces := make([]*Trace, len(trajs))
	for i, traj := range trajs {
		trace, err := r.Detector.Run(ctx, traj)
		if err != nil {
			return nil, &TrajectoryError{Index: i, Err: err}
		}
		traces[i] = trace
	}
	return traces, nil
}

// Run scores the trajectories and aggregates the traces into the pipeline
// report. truths supplies per-trajectory error ground truth; pass nil to
// derive it from the labels.
func (r *Runner) Run(ctx context.Context, trajs []*Trajectory, truths [][]ErrorTruth) (*PipelineReport, error) {
	traces, err := r.Traces(ctx, trajs)
	if err != nil {
		return nil, err
	}
	info := r.Detector.Info()
	return core.EvaluateTraces(trajs, traces, truths, info.Threshold, info.PredictsContext)
}

// groundTruthOf returns the trajectory's gesture labels when fully present.
func groundTruthOf(traj *Trajectory) []int {
	if len(traj.Gestures) == len(traj.Frames) {
		return traj.Gestures
	}
	return nil
}
