package gesture

// ErrorMode is one of the common gesture-specific failure modes from the
// paper's Table II rubric.
type ErrorMode int

// Failure modes observed per gesture (Table II). A gesture is classified
// erroneous if any of its gesture-specific modes is observed.
const (
	ErrMultipleAttempts       ErrorMode = iota + 1 // more than one attempt to reach/position/orient
	ErrNeedleDrop                                  // unintentional needle/object drop
	ErrOutOfView                                   // end-effector / needle holder not in view at all times
	ErrMultipleMoves                               // driving needle with more than one movement
	ErrNotAlongCurve                               // not removing the needle along its curve
	ErrLooseKnot                                   // knot left loose
	ErrFailureToDropoff                            // failure to drop off at end point
	ErrInstrumentForStability                      // uses tissue/instrument for stability
)

// String returns a short description of the failure mode.
func (e ErrorMode) String() string {
	switch e {
	case ErrMultipleAttempts:
		return "more than one attempt"
	case ErrNeedleDrop:
		return "unintentional needle drop"
	case ErrOutOfView:
		return "end-effector out of view"
	case ErrMultipleMoves:
		return "driving with more than one movement"
	case ErrNotAlongCurve:
		return "not removing needle along its curve"
	case ErrLooseKnot:
		return "knot left loose"
	case ErrFailureToDropoff:
		return "failure to drop off"
	case ErrInstrumentForStability:
		return "uses tissue/instrument for stability"
	default:
		return "unknown error mode"
	}
}

// FaultClass categorizes the kinematic-state fault that can cause a failure
// mode (Table II "Potential Causes" column).
type FaultClass int

// Fault classes on kinematic state variables.
const (
	FaultRotation    FaultClass = iota + 1 // wrong rotation angles
	FaultCartesian                         // wrong Cartesian position / sudden jumps
	FaultHighGrasper                       // grasper angle too high
	FaultLowGrasper                        // grasper angle too low
	FaultLowPressure                       // low pressure applied (tightening)
)

// String returns a short description of the fault class.
func (f FaultClass) String() string {
	switch f {
	case FaultRotation:
		return "wrong rotation angles"
	case FaultCartesian:
		return "wrong Cartesian position / sudden jumps"
	case FaultHighGrasper:
		return "high grasper angle"
	case FaultLowGrasper:
		return "low grasper angle"
	case FaultLowPressure:
		return "low applied pressure"
	default:
		return "unknown fault class"
	}
}

// RubricEntry couples a gesture with its common failure modes and the
// kinematic fault classes that can cause them.
type RubricEntry struct {
	Gesture Gesture
	Modes   []ErrorMode
	Faults  []FaultClass
}

// Rubric returns the Table II rubric: per-gesture common errors for the
// Suturing and Block Transfer tasks. Gestures absent from the map (G10) have
// no common errors.
func Rubric() map[Gesture]RubricEntry {
	return map[Gesture]RubricEntry{
		G1:  {G1, []ErrorMode{ErrMultipleAttempts}, []FaultClass{FaultRotation}},
		G2:  {G2, []ErrorMode{ErrMultipleAttempts}, []FaultClass{FaultRotation}},
		G3:  {G3, []ErrorMode{ErrMultipleMoves, ErrNotAlongCurve}, []FaultClass{FaultCartesian}},
		G4:  {G4, []ErrorMode{ErrNeedleDrop, ErrOutOfView}, []FaultClass{FaultCartesian}},
		G5:  {G5, []ErrorMode{ErrNeedleDrop}, []FaultClass{FaultHighGrasper}},
		G6:  {G6, []ErrorMode{ErrOutOfView, ErrNeedleDrop}, []FaultClass{FaultCartesian}},
		G8:  {G8, []ErrorMode{ErrInstrumentForStability, ErrMultipleAttempts}, []FaultClass{FaultRotation}},
		G9:  {G9, []ErrorMode{ErrLooseKnot}, []FaultClass{FaultLowPressure}},
		G11: {G11, []ErrorMode{ErrFailureToDropoff}, []FaultClass{FaultLowGrasper}},
		G12: {G12, []ErrorMode{ErrMultipleAttempts}, []FaultClass{FaultCartesian}},
	}
}
