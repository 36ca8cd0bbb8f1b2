// Attack replay: a targeted attack on the robot control system, detected
// in-stream by the context-aware monitor.
//
// The scenario follows the paper's threat model (§I, §IV-B): a malicious
// fault in the cyber layer perturbs the kinematic state variables — here a
// stealthy grasper-angle ramp injected mid-carry, the signature that causes
// unintentional needle/object drops. The safemon detector runs online next
// to the robot; the example measures how long after the attack onset the
// first alert fires.
//
// Run with:
//
//	go run ./examples/attackreplay
package main

import (
	"context"
	"fmt"
	"log"

	"repro/internal/dataset"
	"repro/internal/faultinject"
	"repro/internal/gesture"
	"repro/internal/kinematics"
	"repro/internal/synth"
	"repro/safemon"
)

func main() {
	if err := run(); err != nil {
		log.Fatal(err)
	}
}

func run() error {
	ctx := context.Background()

	// Train the monitor on clean + erroneous Suturing demonstrations.
	demos, err := synth.Generate(synth.Config{
		Task: gesture.Suturing, Hz: 30, Seed: 11,
		NumDemos: 20, NumTrials: 4, Subjects: 4, DurationScale: 0.6,
	})
	if err != nil {
		return err
	}
	fold := dataset.LOSO(synth.Trajectories(demos))[0]

	det := safemon.New()
	if err := det.Fit(ctx, fold.Train); err != nil {
		return err
	}

	// Take a clean (error-free) held-out demonstration as the victim
	// trajectory and inject the attack into its kinematic state.
	var victim *kinematics.Trajectory
	for _, tr := range fold.Test {
		if tr.UnsafeFraction() == 0 {
			victim = tr
			break
		}
	}
	if victim == nil {
		victim = fold.Test[0]
	}

	attack := faultinject.Fault{
		Variable:    faultinject.GrasperAngle,
		Target:      1.3, // forces the jaw open: needle-drop signature
		StartFrac:   0.45,
		Duration:    0.2,
		Manipulator: kinematics.Left,
		RampRate:    1.5, // slow ramp to stay stealthy
	}
	compromised, onset, end, err := faultinject.Inject(victim, attack)
	if err != nil {
		return err
	}
	fmt.Printf("attack: grasper-angle ramp to %.1f rad over frames [%d,%d) (t=%.2fs..%.2fs)\n",
		attack.Target, onset, end, float64(onset)/victim.HzRate, float64(end)/victim.HzRate)

	// Stream the compromised trajectory through the online monitor.
	sess, err := det.NewSession()
	if err != nil {
		return err
	}
	defer sess.Close()
	firstAlert := -1
	for i := range compromised.Frames {
		v, err := sess.Push(&compromised.Frames[i])
		if err != nil {
			return err
		}
		if v.Unsafe && i >= onset && firstAlert < 0 {
			firstAlert = i
			fmt.Printf("t=%5.2fs  ALERT in context %-4s (score %.2f)\n",
				float64(i)/victim.HzRate, gesture.Gesture(v.Gesture), v.Score)
		}
	}

	switch {
	case firstAlert < 0:
		fmt.Println("attack was NOT detected — try a larger target angle")
	default:
		latency := float64(firstAlert-onset) / victim.HzRate * 1000
		fmt.Printf("detection latency after attack onset: %.0f ms", latency)
		budget := float64(end-firstAlert) / victim.HzRate * 1000
		fmt.Printf(" (%.0f ms left before the attack completes — the mitigation budget)\n", budget)
	}

	// Control: the clean victim should raise no (or few) alerts. A new
	// stream opens a new session.
	clean, err := det.NewSession()
	if err != nil {
		return err
	}
	defer clean.Close()
	cleanAlerts := 0
	for i := range victim.Frames {
		v, err := clean.Push(&victim.Frames[i])
		if err != nil {
			return err
		}
		if v.Unsafe {
			cleanAlerts++
		}
	}
	fmt.Printf("control: %d/%d frames flagged on the clean trajectory (false-alarm check)\n",
		cleanAlerts, victim.Len())
	return nil
}
