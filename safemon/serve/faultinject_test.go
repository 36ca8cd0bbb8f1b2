package serve

import (
	"context"
	"encoding/json"
	"reflect"
	"testing"

	"repro/internal/core"
	"repro/internal/faultinject"
	"repro/internal/kinematics"
	"repro/safemon"
)

// TestFaultInjectionCampaignOverServe drives the seed's fault-injection
// error library through the network path: synthetic trajectories are
// perturbed with grasper + Cartesian faults from the Table III grid, each
// perturbed stream is served by safemond, and the detection report
// aggregated from the served verdicts must equal the offline
// EvaluateTraces aggregation of the batch Runner bit for bit.
func TestFaultInjectionCampaignOverServe(t *testing.T) {
	fold := testFold(t)
	det := fittedDetector(t, "envelope")
	ctx := context.Background()
	info := det.Info()

	// Build a small campaign against the held-out trajectories from the
	// grid's highest grasper bands (1.3–1.6 rad, far outside the synth
	// grasper range of 0.15–1.10, so the envelope has something to catch),
	// perturbing both targeted variables as the paper's combined
	// experiments do.
	grid := faultinject.Table3Grid()
	var perturbed []*safemon.Trajectory
	for i, bucket := range grid[len(grid)-6:] {
		demo := fold.Test[i%len(fold.Test)]
		gf := faultinject.Fault{
			Variable:    faultinject.GrasperAngle,
			Target:      (bucket.GrasperLo + bucket.GrasperHi) / 2,
			StartFrac:   faultinject.InjectionStartFrac,
			Duration:    (bucket.GrasperDurLo + bucket.GrasperDurHi) / 2,
			Manipulator: kinematics.Left,
		}
		withGrasper, _, _, err := faultinject.Inject(demo, gf)
		if err != nil {
			t.Fatal(err)
		}
		cf := faultinject.Fault{
			Variable:    faultinject.CartesianPosition,
			Target:      (bucket.CartLo + bucket.CartHi) / 2,
			StartFrac:   faultinject.InjectionStartFrac,
			Duration:    (bucket.CartDurLo + bucket.CartDurHi) / 2,
			Manipulator: kinematics.Left,
		}
		full, _, _, err := faultinject.Inject(withGrasper, cf)
		if err != nil {
			t.Fatal(err)
		}
		perturbed = append(perturbed, full)
	}

	// Offline aggregation: the batch Runner over the perturbed set.
	offline, err := (&safemon.Runner{Detector: det, Workers: 2}).Run(ctx, perturbed, nil)
	if err != nil {
		t.Fatal(err)
	}

	// Served aggregation: every perturbed trajectory through a live
	// safemond stream, rebuilt into traces, aggregated the same way.
	_, client := newTestService(t, map[string]safemon.Detector{"envelope": det}, ManagerConfig{})
	traces := make([]*core.Trace, len(perturbed))
	for i, traj := range perturbed {
		verdicts, err := client.StreamTrajectory(ctx, "envelope", traj)
		if err != nil {
			t.Fatalf("trajectory %d: %v", i, err)
		}
		traces[i] = &safemon.Trace{Verdicts: verdicts}
	}
	served, err := core.EvaluateTraces(perturbed, traces, nil, info.Threshold, info.PredictsContext)
	if err != nil {
		t.Fatal(err)
	}

	if !reflect.DeepEqual(offline, served) {
		t.Fatalf("served campaign report differs from offline:\noffline: %+v\nserved:  %+v", offline, served)
	}
	offB, err := json.Marshal(offline)
	if err != nil {
		t.Fatal(err)
	}
	srvB, err := json.Marshal(served)
	if err != nil {
		t.Fatal(err)
	}
	if string(offB) != string(srvB) {
		t.Fatal("serialized campaign reports differ")
	}

	// The injections must actually register: every perturbed trajectory
	// carries unsafe ground truth, and the envelope should flag at least
	// one of the injected windows.
	if offline.TotalErrors == 0 {
		t.Error("campaign produced no erroneous-gesture ground truth")
	}
	if offline.TotalErrors == offline.MissedErrors {
		t.Error("every injected fault was missed; campaign is vacuous")
	}
}
