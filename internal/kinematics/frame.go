// Package kinematics defines the kinematic data model used throughout the
// safety monitor: per-manipulator frames of Cartesian position, rotation,
// grasper angle and velocities, trajectories of such frames, feature-subset
// selection and standardization.
//
// The layout mirrors the JIGSAWS dVRK recording format: 19 variables per
// manipulator (Cartesian position ×3, rotation matrix ×9, grasper angle ×1,
// linear velocity ×3, angular velocity ×3), two patient-side manipulators,
// for 38 features per frame.
package kinematics

import (
	"fmt"
	"math"
)

// VarsPerManipulator is the number of kinematic variables recorded per
// manipulator, matching the JIGSAWS layout.
const VarsPerManipulator = 19

// NumManipulators is the number of patient-side manipulators recorded.
const NumManipulators = 2

// FrameSize is the total number of kinematic features in one frame.
const FrameSize = VarsPerManipulator * NumManipulators

// Offsets of variable groups within a single manipulator's block.
const (
	OffCartesian   = 0  // x, y, z
	OffRotation    = 3  // 3x3 rotation matrix, row major
	OffGrasper     = 12 // grasper angle (rad)
	OffLinearVel   = 13 // vx, vy, vz
	OffAngularVel  = 16 // wx, wy, wz
	cartesianCount = 3
	rotationCount  = 9
	grasperCount   = 1
	linVelCount    = 3
	angVelCount    = 3
)

// Manipulator identifies one of the two patient-side manipulators.
type Manipulator int

// Manipulator identifiers. Left is 1 so that the zero value is invalid,
// making accidental use of an unset Manipulator detectable.
const (
	Left Manipulator = iota + 1
	Right
)

// String returns a human-readable manipulator name.
func (m Manipulator) String() string {
	switch m {
	case Left:
		return "left"
	case Right:
		return "right"
	default:
		return fmt.Sprintf("manipulator(%d)", int(m))
	}
}

// block returns the offset of the manipulator's variable block in a frame.
func (m Manipulator) block() int {
	if m == Right {
		return VarsPerManipulator
	}
	return 0
}

// Frame is one time sample of the full kinematic state: 38 float64 features
// laid out as [left 19 vars][right 19 vars].
type Frame [FrameSize]float64

// Cartesian returns the (x, y, z) end-effector position of manipulator m.
func (f *Frame) Cartesian(m Manipulator) (x, y, z float64) {
	b := m.block() + OffCartesian
	return f[b], f[b+1], f[b+2]
}

// SetCartesian sets the end-effector position of manipulator m.
func (f *Frame) SetCartesian(m Manipulator, x, y, z float64) {
	b := m.block() + OffCartesian
	f[b], f[b+1], f[b+2] = x, y, z
}

// GrasperAngle returns the grasper opening angle (radians) of manipulator m.
func (f *Frame) GrasperAngle(m Manipulator) float64 {
	return f[m.block()+OffGrasper]
}

// SetGrasperAngle sets the grasper opening angle (radians) of manipulator m.
func (f *Frame) SetGrasperAngle(m Manipulator, a float64) {
	f[m.block()+OffGrasper] = a
}

// SetRotation sets the 3x3 rotation matrix (row major) of manipulator m.
func (f *Frame) SetRotation(m Manipulator, r [9]float64) {
	copy(f[m.block()+OffRotation:m.block()+OffRotation+rotationCount], r[:])
}

// LinearVelocity returns the end-effector linear velocity of manipulator m.
func (f *Frame) LinearVelocity(m Manipulator) (vx, vy, vz float64) {
	b := m.block() + OffLinearVel
	return f[b], f[b+1], f[b+2]
}

// SetLinearVelocity sets the end-effector linear velocity of manipulator m.
func (f *Frame) SetLinearVelocity(m Manipulator, vx, vy, vz float64) {
	b := m.block() + OffLinearVel
	f[b], f[b+1], f[b+2] = vx, vy, vz
}

// AngularVelocity returns the end-effector angular velocity of manipulator m.
func (f *Frame) AngularVelocity(m Manipulator) (wx, wy, wz float64) {
	b := m.block() + OffAngularVel
	return f[b], f[b+1], f[b+2]
}

// SetAngularVelocity sets the end-effector angular velocity of manipulator m.
func (f *Frame) SetAngularVelocity(m Manipulator, wx, wy, wz float64) {
	b := m.block() + OffAngularVel
	f[b], f[b+1], f[b+2] = wx, wy, wz
}

// IdentityRotation is the 3x3 identity rotation matrix in row-major order.
func IdentityRotation() [9]float64 {
	return [9]float64{1, 0, 0, 0, 1, 0, 0, 0, 1}
}

// RotationZ returns the rotation matrix for a rotation of theta radians
// about the z axis, row major.
func RotationZ(theta float64) [9]float64 {
	c, s := math.Cos(theta), math.Sin(theta)
	return [9]float64{c, -s, 0, s, c, 0, 0, 0, 1}
}

// RotationY returns the rotation matrix for a rotation of theta radians
// about the y axis, row major.
func RotationY(theta float64) [9]float64 {
	c, s := math.Cos(theta), math.Sin(theta)
	return [9]float64{c, 0, s, 0, 1, 0, -s, 0, c}
}

// RotationX returns the rotation matrix for a rotation of theta radians
// about the x axis, row major.
func RotationX(theta float64) [9]float64 {
	c, s := math.Cos(theta), math.Sin(theta)
	return [9]float64{1, 0, 0, 0, c, -s, 0, s, c}
}

// MulRotation multiplies two row-major 3x3 rotation matrices (a·b).
func MulRotation(a, b [9]float64) [9]float64 {
	var out [9]float64
	for i := 0; i < 3; i++ {
		for j := 0; j < 3; j++ {
			var sum float64
			for k := 0; k < 3; k++ {
				sum += a[i*3+k] * b[k*3+j]
			}
			out[i*3+j] = sum
		}
	}
	return out
}
