package serve

import (
	"bytes"
	"context"
	"testing"

	"repro/safemon"
)

// TestGoldenArtifactRoundTripServed completes the per-backend golden
// round-trip suite (Fit → Save → Load → byte-identical verdicts): the
// Runner and Session-replay legs live in safemon's artifact tests; this
// test covers the live-safemond leg. For every backend, a daemon serving
// the artifact-loaded detector must stream verdicts byte-identical to the
// fitted detector's offline Runner — proving a safemond restarted from
// artifacts is indistinguishable on the wire from the one that trained
// in-process.
func TestGoldenArtifactRoundTripServed(t *testing.T) {
	fold := testFold(t)
	traj := fold.Test[0]
	ctx := context.Background()

	for _, backend := range []string{"context-aware", "lookahead", "monolithic", "envelope", "skipchain", "sdsdl"} {
		t.Run(backend, func(t *testing.T) {
			det := fittedDetector(t, backend)
			var art bytes.Buffer
			if err := det.Save(&art); err != nil {
				t.Fatalf("save: %v", err)
			}
			loaded, err := safemon.LoadDetector(bytes.NewReader(art.Bytes()))
			if err != nil {
				t.Fatalf("load: %v", err)
			}

			ref, err := (&safemon.Runner{Detector: det, Workers: 1}).Traces(ctx, []*safemon.Trajectory{traj})
			if err != nil {
				t.Fatal(err)
			}
			want := wireLines(t, ref[0].Verdicts)

			_, client := newTestService(t, map[string]safemon.Detector{backend: loaded}, ManagerConfig{})
			// Twice, so a second session of the loaded detector is
			// checked too.
			for pass := 0; pass < 2; pass++ {
				streamed, err := client.StreamTrajectory(ctx, backend, traj)
				if err != nil {
					t.Fatal(err)
				}
				if !bytes.Equal(want, wireLines(t, streamed)) {
					t.Fatalf("pass %d: artifact-served verdicts differ from fitted Runner", pass)
				}
			}
		})
	}
}
