package synth

import (
	"errors"
	"fmt"
	"math"
	"math/rand"

	"repro/internal/gesture"
	"repro/internal/kinematics"
)

// Skill models surgeon expertise, which drives error probability, motion
// smoothness and timing — mirroring the JIGSAWS mix of novice, intermediate
// and expert demonstrators.
type Skill int

// Skill levels.
const (
	Expert Skill = iota + 1
	Intermediate
	Novice
)

// errorProb returns the per-gesture probability of committing one of the
// gesture's common errors.
func (s Skill) errorProb() float64 {
	switch s {
	case Expert:
		return 0.08
	case Intermediate:
		return 0.18
	case Novice:
		return 0.32
	default:
		return 0.15
	}
}

// noiseScale returns the motion-noise multiplier.
func (s Skill) noiseScale() float64 {
	switch s {
	case Expert:
		return 0.7
	case Novice:
		return 1.5
	default:
		return 1.0
	}
}

// ErrorEvent records one injected erroneous-gesture instance, used as
// ground truth for reaction-time evaluation.
type ErrorEvent struct {
	Gesture gesture.Gesture
	Mode    gesture.ErrorMode
	// SegStart/SegEnd bracket the whole erroneous gesture (frames).
	SegStart, SegEnd int
	// Onset is the frame at which the error signature begins to manifest.
	Onset int
}

// Demo is one synthetic demonstration: the labeled trajectory plus the
// injected error events.
type Demo struct {
	Traj   *kinematics.Trajectory
	Events []ErrorEvent
	Skill  Skill
}

// Config controls demonstration generation.
type Config struct {
	Task gesture.Task
	// Hz is the kinematics sampling rate (30 for dVRK-style data).
	Hz float64
	// Seed makes generation deterministic.
	Seed int64
	// NumDemos is the number of demonstrations to generate.
	NumDemos int
	// NumTrials is the number of LOSO super-trials demos are spread over.
	NumTrials int
	// Subjects is the number of distinct synthetic surgeons.
	Subjects int
	// ErrorRate, when > 0, overrides the skill-derived per-gesture error
	// probability.
	ErrorRate float64
	// DurationScale scales all gesture durations (1 = nominal). Smaller
	// values produce shorter demos for fast tests.
	DurationScale float64
}

// DefaultSuturing returns the configuration used to stand in for the
// 39-demonstration JIGSAWS Suturing set.
func DefaultSuturing(seed int64) Config {
	return Config{
		Task: gesture.Suturing, Hz: 30, Seed: seed,
		NumDemos: 39, NumTrials: 5, Subjects: 8, DurationScale: 1,
	}
}

// ErrInvalidConfig reports an unusable generator configuration.
var ErrInvalidConfig = errors.New("synth: invalid config")

// surgeonStyle is a per-subject systematic bias applied to all motions.
type surgeonStyle struct {
	offset    point   // workspace offset
	speedMul  float64 // pace multiplier
	wiggleMul float64
	skill     Skill
}

// Generate produces the demonstration set.
func Generate(cfg Config) ([]*Demo, error) {
	if cfg.NumDemos <= 0 || cfg.Hz <= 0 {
		return nil, fmt.Errorf("%w: NumDemos=%d Hz=%v", ErrInvalidConfig, cfg.NumDemos, cfg.Hz)
	}
	if cfg.NumTrials <= 0 {
		cfg.NumTrials = 5
	}
	if cfg.Subjects <= 0 {
		cfg.Subjects = 8
	}
	if cfg.DurationScale <= 0 {
		cfg.DurationScale = 1
	}
	rng := rand.New(rand.NewSource(cfg.Seed))

	styles := make([]surgeonStyle, cfg.Subjects)
	skills := []Skill{Expert, Intermediate, Novice}
	for i := range styles {
		styles[i] = surgeonStyle{
			offset: point{
				x: rng.NormFloat64() * 0.003,
				y: rng.NormFloat64() * 0.003,
				z: rng.NormFloat64() * 0.002,
			},
			speedMul:  1 + rng.NormFloat64()*0.12,
			wiggleMul: 1 + rng.Float64()*0.5,
			skill:     skills[i%len(skills)],
		}
	}

	demos := make([]*Demo, 0, cfg.NumDemos)
	for d := 0; d < cfg.NumDemos; d++ {
		// Trial cycles fastest and the subject advances once per full
		// trial cycle, so every LOSO super-trial contains demonstrations
		// from every surgeon — matching the JIGSAWS protocol, where the
		// same surgeons appear in all super-trials.
		subj := (d / cfg.NumTrials) % cfg.Subjects
		demo := generateDemo(rng, cfg, styles[subj])
		demo.Traj.Subject = fmt.Sprintf("S%02d", subj)
		demo.Traj.Trial = d % cfg.NumTrials
		demos = append(demos, demo)
	}
	return demos, nil
}

// generateDemo synthesizes one demonstration.
func generateDemo(rng *rand.Rand, cfg Config, style surgeonStyle) *Demo {
	seq := SampleSequence(rng, cfg.Task)
	errProb := cfg.ErrorRate
	if errProb <= 0 {
		errProb = style.skill.errorProb()
	}

	gen := newFrameGen(rng, cfg.Hz, style)
	demo := &Demo{Skill: style.skill}
	traj := &kinematics.Trajectory{HzRate: cfg.Hz}

	for _, g := range seq {
		proto, ok := prototypes[g]
		if !ok {
			continue
		}
		dur := (proto.durMean + rng.NormFloat64()*proto.durStd) * cfg.DurationScale / style.speedMul
		if dur < 0.4*cfg.DurationScale {
			dur = 0.4 * cfg.DurationScale
		}
		frames := int(dur * cfg.Hz)
		if frames < 4 {
			frames = 4
		}

		var injected *errorInjection
		if _, hasErr := gesture.Rubric()[g]; hasErr && rng.Float64() < errProb {
			injected = planInjection(rng, g, frames)
		}

		segStart := len(traj.Frames)
		gen.emitGesture(traj, g, proto, frames, injected)
		if injected != nil {
			demo.Events = append(demo.Events, ErrorEvent{
				Gesture:  g,
				Mode:     injected.mode,
				SegStart: segStart,
				SegEnd:   len(traj.Frames),
				Onset:    segStart + injected.onset,
			})
		}
	}
	demo.Traj = traj
	return demo
}

// frameGen tracks manipulator state across gestures so trajectories are
// continuous.
type frameGen struct {
	rng   *rand.Rand
	hz    float64
	style surgeonStyle

	posR, posL       point
	rotAngR, rotAngL float64
	graspR, graspL   float64
	phase            float64 // global time (s) for periodic terms
}

func newFrameGen(rng *rand.Rand, hz float64, style surgeonStyle) *frameGen {
	return &frameGen{
		rng: rng, hz: hz, style: style,
		posR: addPoint(ptRest, style.offset), posL: addPoint(ptRestL, style.offset),
		graspR: GrasperClosed, graspL: GrasperClosed,
	}
}

func addPoint(a, b point) point { return point{a.x + b.x, a.y + b.y, a.z + b.z} }

// smoothstep is the C1 ease-in-ease-out ramp on [0,1].
func smoothstep(u float64) float64 {
	if u <= 0 {
		return 0
	}
	if u >= 1 {
		return 1
	}
	return u * u * (3 - 2*u)
}

// emitGesture appends the frames of one gesture (optionally erroneous) to
// the trajectory, updating the generator's continuous state.
func (fg *frameGen) emitGesture(traj *kinematics.Trajectory, g gesture.Gesture, proto prototype, frames int, inj *errorInjection) {
	dt := 1 / fg.hz
	noise := 0.0008 * fg.style.skill.noiseScale()
	var wholeBias point
	if inj != nil {
		// Erroneous executions are clumsier for their whole duration:
		// elevated tremor plus a persistent offset of the working arm.
		noise *= inj.noiseMul
		wholeBias = inj.wholeBias
	}
	startR, startL := fg.posR, fg.posL
	targetR := addPoint(proto.anchorRight, fg.style.offset)
	targetL := addPoint(proto.anchorLeft, fg.style.offset)
	// Inactive arms hold their position.
	if !proto.rightActive {
		targetR = startR
	}
	if !proto.leftActive {
		targetL = startL
	}
	gRStart, gREnd := proto.grasperRightStart, proto.grasperRightEnd
	gLStart, gLEnd := proto.grasperLeftStart, proto.grasperLeftEnd
	rotStartR, rotStartL := fg.rotAngR, fg.rotAngL

	prev := kinematics.Frame{}
	havePrev := len(traj.Frames) > 0
	if havePrev {
		prev = traj.Frames[len(traj.Frames)-1]
	}

	for i := 0; i < frames; i++ {
		u := float64(i) / float64(frames-1)
		if frames == 1 {
			u = 1
		}
		prog := smoothstep(u)

		// Error-mode trajectory warping (multiple attempts, jumps, ...).
		warpU, posBiasR, posBiasL, graspBiasR, graspBiasL, rotBias, speedMul := 0.0, point{}, point{}, 0.0, 0.0, 0.0, 1.0
		if inj != nil {
			warpU, posBiasR, posBiasL, graspBiasR, graspBiasL, rotBias, speedMul = inj.apply(i, frames)
		}
		progW := prog
		if warpU != 0 {
			progW = smoothstep(clamp01(u + warpU))
		}

		wig := proto.wiggle * fg.style.wiggleMul
		wx := wig * math.Sin(2*math.Pi*2.3*fg.phase)
		wy := wig * math.Sin(2*math.Pi*1.7*fg.phase+1.1)

		// The persistent clumsiness bias ramps in smoothly so gesture
		// boundaries stay continuous.
		biasEnv := math.Sin(math.Pi * clamp01(u))
		pR := point{
			x: startR.x + (targetR.x-startR.x)*progW + wx + fg.rng.NormFloat64()*noise + posBiasR.x + wholeBias.x*biasEnv,
			y: startR.y + (targetR.y-startR.y)*progW + wy + fg.rng.NormFloat64()*noise + posBiasR.y + wholeBias.y*biasEnv,
			z: startR.z + (targetR.z-startR.z)*progW + fg.rng.NormFloat64()*noise + posBiasR.z + wholeBias.z*biasEnv,
		}
		pL := point{
			x: startL.x + (targetL.x-startL.x)*progW + wx*0.5 + fg.rng.NormFloat64()*noise + posBiasL.x + wholeBias.x*biasEnv,
			y: startL.y + (targetL.y-startL.y)*progW + wy*0.5 + fg.rng.NormFloat64()*noise + posBiasL.y + wholeBias.y*biasEnv,
			z: startL.z + (targetL.z-startL.z)*progW + fg.rng.NormFloat64()*noise + posBiasL.z + wholeBias.z*biasEnv,
		}

		gr := gRStart + (gREnd-gRStart)*prog + graspBiasR + fg.rng.NormFloat64()*0.01
		gl := gLStart + (gLEnd-gLStart)*prog + graspBiasL + fg.rng.NormFloat64()*0.01
		if gr < 0 {
			gr = 0
		}
		if gl < 0 {
			gl = 0
		}

		rotAct := proto.rotRate * speedMul
		angR := rotStartR
		angL := rotStartL
		if proto.rightActive {
			angR += rotAct*u*2 + rotBias + 0.2*math.Sin(2*math.Pi*1.3*fg.phase)*rotAct
		}
		if proto.leftActive {
			angL += rotAct*u*1.5 + rotBias*0.5
		}

		var f kinematics.Frame
		f.SetCartesian(kinematics.Right, pR.x, pR.y, pR.z)
		f.SetCartesian(kinematics.Left, pL.x, pL.y, pL.z)
		f.SetGrasperAngle(kinematics.Right, gr)
		f.SetGrasperAngle(kinematics.Left, gl)
		f.SetRotation(kinematics.Right, rotationAbout(proto.rotAxis, angR))
		f.SetRotation(kinematics.Left, rotationAbout(proto.rotAxis, angL))

		if havePrev {
			x0, y0, z0 := prev.Cartesian(kinematics.Right)
			f.SetLinearVelocity(kinematics.Right, (pR.x-x0)/dt, (pR.y-y0)/dt, (pR.z-z0)/dt)
			x0, y0, z0 = prev.Cartesian(kinematics.Left)
			f.SetLinearVelocity(kinematics.Left, (pL.x-x0)/dt, (pL.y-y0)/dt, (pL.z-z0)/dt)
			f.SetAngularVelocity(kinematics.Right, 0, 0, (angR-fg.rotAngR)/dt)
			f.SetAngularVelocity(kinematics.Left, 0, 0, (angL-fg.rotAngL)/dt)
		}

		traj.Frames = append(traj.Frames, f)
		traj.Gestures = append(traj.Gestures, int(g))
		// Paper rule: any erroneous sample marks the whole gesture unsafe;
		// frame labels carry the per-gesture erroneous flag.
		traj.Unsafe = append(traj.Unsafe, inj != nil)

		prev = f
		havePrev = true
		fg.posR, fg.posL = pR, pL
		fg.rotAngR, fg.rotAngL = angR, angL
		fg.graspR, fg.graspL = gr, gl
		fg.phase += dt
	}
}

func clamp01(u float64) float64 {
	if u < 0 {
		return 0
	}
	if u > 1 {
		return 1
	}
	return u
}

// rotationAbout returns a rotation matrix of angle a about axis (0=x,1=y,2=z).
func rotationAbout(axis int, a float64) [9]float64 {
	switch axis {
	case 0:
		return kinematics.RotationX(a)
	case 1:
		return kinematics.RotationY(a)
	default:
		return kinematics.RotationZ(a)
	}
}

// Trajectories extracts the trajectory list from demos.
func Trajectories(demos []*Demo) []*kinematics.Trajectory {
	out := make([]*kinematics.Trajectory, len(demos))
	for i, d := range demos {
		out[i] = d.Traj
	}
	return out
}

// CountErroneousGestures returns (total gestures, erroneous gestures)
// across all demos, the headline counts reported in §IV of the paper.
func CountErroneousGestures(demos []*Demo) (total, erroneous int) {
	for _, d := range demos {
		segs := d.Traj.Segments()
		total += len(segs)
		for _, s := range segs {
			if s.Unsafe {
				erroneous++
			}
		}
	}
	return total, erroneous
}
