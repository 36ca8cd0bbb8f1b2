package safemon

import (
	"context"
	"time"

	"repro/safemon/guard"
	"repro/safemon/ledger"
)

// runViaSession implements Detector.Run as the replay of the trajectory
// through a fresh session: the batch path is the streaming path by
// construction. Trajectory labels, when present, are forwarded so
// ground-truth-context backends work out of the box. When timing is set,
// the mean per-frame push latency lands in Trace.ErrorComputeNS.
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
	}
	if timing && len(traj.Frames) > 0 {
		trace.ErrorComputeNS = float64(elapsed.Nanoseconds()) / float64(len(traj.Frames))
	}
	return trace, nil
}

// decorate applies the session's guard and ledger options to a backend's
// bare session; without either it returns s itself. The policy is
// validated here, and on an error s is closed. The recorded session
// starts once the policy is accepted.
func decorate(s Session, sc sessionConfig) (Session, error) {
	if sc.guardPolicy == nil && sc.ledger == nil {
		return s, nil
	}
	d := &decoratedSession{Session: s, last: guard.Decision{AlertFrame: -1}}
	policy := ""
	if sc.guardPolicy != nil {
		eng, err := guard.NewEngine(*sc.guardPolicy)
		if err != nil {
			s.Close()
			return nil, err
		}
		d.eng, policy = eng, eng.Policy().Name
	}
	d.rec = ledger.NewRecorder(sc.ledger, sc.ledgerBackend, sc.ledgerModel, policy)
	d.rec.Start(sc.groundTruth)
	if d.eng == nil {
		return d, nil
	}
	return guardedSession{d}, nil
}

// decoratedSession steps every verdict of a backend session through an
// optional guard engine, then records the verdict (with its input
// frame) and any guard action edge through a recorder, which is nil
// without WithLedger. A recorded session reads start, one verdict per
// frame with the action edges in between, and an end noted "close".
type decoratedSession struct {
	Session
	eng    *guard.Engine
	rec    *ledger.Recorder
	last   guard.Decision
	frames int
}

func (d *decoratedSession) Push(f *Frame) (FrameVerdict, error) {
	v, err := d.Session.Push(f)
	if err != nil {
		return v, err
	}
	if d.eng != nil {
		d.last = d.eng.Step(v)
	}
	d.frames++
	d.rec.Verdict(v, f)
	if d.last.Changed {
		d.rec.Action(d.last)
	}
	return v, nil
}

// Close ends the recorded session once, then closes the backend session.
func (d *decoratedSession) Close() error {
	d.rec.End(d.frames, "close")
	d.rec = nil
	return d.Session.Close()
}

// guardedSession is a decoratedSession opened WithGuard: it adds the
// GuardedSession surface over the engine.
type guardedSession struct{ *decoratedSession }

func (g guardedSession) Decision() guard.Decision      { return g.last }
func (g guardedSession) GuardPolicy() guard.Policy     { return g.eng.Policy() }
func (g guardedSession) GuardCounters() guard.Counters { return g.eng.Counters() }
