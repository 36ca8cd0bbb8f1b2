package simulator

import (
	"math"

	"repro/internal/kinematics"
)

// Episode is the stepping form of World.Run: the same physics, advanced
// one command frame at a time, so a caller can sit *inside* the control
// loop — inspect each executed frame, run a safety monitor over it, and
// rewrite the next command before it executes. This is what lets the
// guard's closed-loop mitigation (internal/mitigation) intercept a hazard
// mid-run instead of only scoring a finished trajectory.
//
// The contract with Run is exact: stepping every frame with a nil override
// produces a Result bit-identical to Run on the same World and command
// stream (pinned by TestEpisodeStepMatchesRun). Run itself is implemented
// as this loop.
type Episode struct {
	w        *World
	commands *kinematics.Trajectory
	res      *Result
	exec     *kinematics.Trajectory
	dt       float64
	camEvery int
	i        int
	finished bool

	hasGestures bool
	hasUnsafe   bool
}

// StepEvent reports what one simulation tick did — the ground-truth signals
// a closed-loop harness keys its accounting on.
type StepEvent struct {
	// Index is the command/kinematics frame index just executed.
	Index int
	// Executed points at the frame appended to the executed trajectory
	// (after the controller's workspace clamp and any override). It is
	// valid until the next Step — the backing slice may reallocate as
	// the trajectory grows — so copy it to retain it.
	Executed *kinematics.Frame
	// Held reports whether the block is grasped after this tick.
	Held bool
	// Dropped is true on the tick the block slipped out of the jaw — the
	// hazard manifestation instant the reaction budget counts down to.
	Dropped bool
	// Released is true on the tick of an intentional release over the
	// receptacle.
	Released bool
}

// Begin starts an episode that replays the command stream through the
// world. Gesture and safety labels ride along from the command stream
// regardless of overrides; cameraFPS <= 0 disables rendering, as in Run.
func (w *World) Begin(commands *kinematics.Trajectory, cameraFPS float64) *Episode {
	camEvery := 0
	if cameraFPS > 0 {
		camEvery = int(commands.HzRate / cameraFPS)
		if camEvery < 1 {
			camEvery = 1
		}
	}
	return &Episode{
		w:        w,
		commands: commands,
		res: &Result{
			DropFrame:    -1,
			ReleaseFrame: -1,
			Outcome:      NoFailure,
		},
		exec: &kinematics.Trajectory{
			HzRate:  commands.HzRate,
			Subject: commands.Subject,
			Trial:   commands.Trial,
		},
		dt:          1 / commands.HzRate,
		camEvery:    camEvery,
		hasGestures: len(commands.Gestures) == len(commands.Frames),
		hasUnsafe:   len(commands.Unsafe) == len(commands.Frames),
	}
}

// More reports whether command frames remain to execute.
func (e *Episode) More() bool { return e.i < len(e.commands.Frames) }

// Index returns the index of the next command frame Step will execute.
func (e *Episode) Index() int { return e.i }

// Step executes the next command frame. override, when non-nil, replaces
// the commanded kinematics for this tick — the guard's mitigation path
// (hold position, clamp the grasper) — while the gesture/safety labels
// still come from the original command stream. It panics when called past
// the end of the commands or after Finish.
func (e *Episode) Step(override *kinematics.Frame) StepEvent {
	if !e.More() || e.finished {
		panic("simulator: Episode.Step past the end of the command stream")
	}
	w := e.w
	i := e.i
	f := e.commands.Frames[i] // copy
	if override != nil {
		f = *override
	}
	// Controller safety envelope on Cartesian commands.
	for _, m := range []kinematics.Manipulator{kinematics.Left, kinematics.Right} {
		x, y, z := f.Cartesian(m)
		f.SetCartesian(m, clampWorkspace(x), clampWorkspace(y), clampWorkspace(z))
	}
	gx, gy, gz := f.Cartesian(kinematics.Left)
	ga := f.GrasperAngle(kinematics.Left)

	ev := StepEvent{Index: i}
	switch {
	case !w.blockHeld && !w.blockDown:
		// Grab when the open-then-closing jaw reaches the block.
		d := dist3(gx, gy, gz, w.blockPos[0], w.blockPos[1], w.blockPos[2])
		if d < GraspRadius && ga < HoldAngle {
			w.blockHeld = true
		}
	case w.blockHeld:
		// Carry: block follows the jaw.
		w.blockPos = [3]float64{gx, gy, gz}
		switch {
		case ga >= ReleaseAngle && nearReceptacle(gx, gy):
			// Intentional release over the receptacle: success.
			w.blockHeld = false
			w.blockDown = true
			w.blockPos[2] = 0
			e.res.ReleaseFrame = i
			ev.Released = true
		case ga > w.slipThresh:
			// Jaw opened past the grip threshold: the block slips
			// at a rate proportional to the excess, dropping once
			// the integrated excess exhausts the grip capacity.
			w.slipAccum += (ga - w.slipThresh) * e.dt
			if w.slipAccum > w.slipBudget {
				w.blockHeld = false
				w.blockDown = true
				// A slipping block inherits the carry momentum and
				// tumbles as it lands, displacing it visibly from
				// the jaw in the camera view.
				tumble := 0.010 + 0.5*w.blockPos[2]
				ang := w.rng.Float64() * 2 * math.Pi
				w.blockPos[0] += tumble * math.Cos(ang)
				w.blockPos[1] += tumble * math.Sin(ang)
				w.blockPos[2] = 0
				e.res.DropFrame = i
				ev.Dropped = true
				if ga >= hardOpenAngle && nearMissReceptacle(w.blockPos[0], w.blockPos[1]) {
					// A commanded full-open release that lands just
					// outside the receptacle (e.g. Cartesian
					// deviation at drop time): wrong-position drop.
					e.res.Outcome = WrongPositionDrop
				} else {
					e.res.Outcome = BlockDropFailure
				}
			}
		}
	}

	e.exec.Frames = append(e.exec.Frames, f)
	if e.hasGestures {
		e.exec.Gestures = append(e.exec.Gestures, e.commands.Gestures[i])
	}
	if e.hasUnsafe {
		e.exec.Unsafe = append(e.exec.Unsafe, e.commands.Unsafe[i])
	}
	if e.camEvery > 0 && i%e.camEvery == 0 {
		e.res.Frames = append(e.res.Frames, w.Render())
		e.res.FrameTimes = append(e.res.FrameTimes, i)
	}
	e.i++

	ev.Executed = &e.exec.Frames[len(e.exec.Frames)-1]
	ev.Held = w.blockHeld
	return ev
}

// Finish classifies the episode outcome and returns the Result, exactly as
// Run would have. It is idempotent; Step panics after it.
func (e *Episode) Finish() *Result {
	if e.finished {
		return e.res
	}
	e.finished = true
	w := e.w
	// Outcome classification at episode end.
	if e.res.Outcome == NoFailure {
		switch {
		case w.blockHeld || !w.blockDown:
			// Block never released: dropoff failure.
			e.res.Outcome = DropoffFailure
		case e.res.ReleaseFrame >= 0 && !nearReceptacle(w.blockPos[0], w.blockPos[1]):
			e.res.Outcome = WrongPositionDrop
		}
	}
	e.res.Traj = e.exec
	return e.res
}
