package safemon

import (
	"context"
	"time"

	"repro/internal/core"
)

// replayTrace streams a trajectory through an existing session and collects
// the trace. The session must be freshly created or Reset. When timing is
// set, the mean per-frame push latency lands in Trace.ErrorComputeNS.
func replayTrace(ctx context.Context, s Session, traj *Trajectory, timing bool) (*Trace, error) {
	trace := &Trace{Verdicts: make([]FrameVerdict, 0, len(traj.Frames))}
	var elapsed time.Duration
	for i := range traj.Frames {
		if i&0xff == 0 {
			if err := ctx.Err(); err != nil {
				return nil, err
			}
		}
		var start time.Time
		if timing {
			start = time.Now()
		}
		v, err := s.Push(&traj.Frames[i])
		if timing {
			elapsed += time.Since(start)
		}
		if err != nil {
			return nil, err
		}
		trace.Verdicts = append(trace.Verdicts, v)
		if v.Unsafe {
			trace.Alerts = append(trace.Alerts, core.Alert{FrameIndex: v.FrameIndex, Gesture: v.Gesture, Score: v.Score})
		}
	}
	if timing && len(traj.Frames) > 0 {
		trace.ErrorComputeNS = float64(elapsed.Nanoseconds()) / float64(len(traj.Frames))
	}
	return trace, nil
}

// runViaSession implements Detector.Run as a session replay: the batch path
// is the streaming path by construction. Trajectory labels, when present,
// are forwarded so ground-truth-context backends work out of the box.
func runViaSession(ctx context.Context, d Detector, traj *Trajectory, timing bool) (*Trace, error) {
	var opts []SessionOption
	if gt := groundTruthOf(traj); gt != nil {
		opts = append(opts, WithSessionLabels(gt))
	}
	s, err := d.NewSession(opts...)
	if err != nil {
		return nil, err
	}
	defer s.Close()
	return replayTrace(ctx, s, traj, timing)
}
