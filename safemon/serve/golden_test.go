package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"testing"

	"repro/safemon"
)

// wireLines marshals a verdict sequence through the wire type, one JSON
// line per verdict — the canonical byte form all three paths must share.
func wireLines(t *testing.T, verdicts []safemon.FrameVerdict) []byte {
	t.Helper()
	var buf bytes.Buffer
	enc := json.NewEncoder(&buf)
	for _, v := range verdicts {
		if err := enc.Encode(WireVerdict(v)); err != nil {
			t.Fatal(err)
		}
	}
	return buf.Bytes()
}

// TestGoldenVerdictsAcrossPaths is the end-to-end golden suite: for every
// registered backend, a fixed synthetic trajectory must yield byte-identical
// verdict sequences from (a) the batch Runner, (b) a manual Session replay,
// and (c) a live safemond NDJSON connection — extending the PR 1
// sequential-vs-concurrent identity guarantee to the network path.
func TestGoldenVerdictsAcrossPaths(t *testing.T) {
	fold := testFold(t)
	traj := fold.Test[0]
	ctx := context.Background()

	for _, backend := range []string{"context-aware", "lookahead", "monolithic", "envelope", "skipchain", "sdsdl", "cascade"} {
		t.Run(backend, func(t *testing.T) {
			det := fittedDetector(t, backend)

			// (a) Batch Runner path.
			traces, err := (&safemon.Runner{Detector: det, Workers: 1}).Traces(ctx, []*safemon.Trajectory{traj})
			if err != nil {
				t.Fatal(err)
			}
			runner := wireLines(t, traces[0].Verdicts)

			// (b) Manual Session replay.
			sess, err := det.NewSession(safemon.WithSessionLabels(traj.Gestures))
			if err != nil {
				t.Fatal(err)
			}
			defer sess.Close()
			var manual []safemon.FrameVerdict
			for i := range traj.Frames {
				v, err := sess.Push(&traj.Frames[i])
				if err != nil {
					t.Fatal(err)
				}
				manual = append(manual, v)
			}
			session := wireLines(t, manual)

			// (c) Live safemond connection.
			_, client := newTestService(t, map[string]safemon.Detector{backend: det}, ManagerConfig{})
			streamed, err := client.StreamTrajectory(ctx, backend, traj)
			if err != nil {
				t.Fatal(err)
			}
			served := wireLines(t, streamed)

			if !bytes.Equal(runner, session) {
				t.Errorf("Runner and Session verdict bytes differ")
			}
			if !bytes.Equal(runner, served) {
				t.Errorf("Runner and served verdict bytes differ")
			}
			if len(streamed) != traj.Len() {
				t.Errorf("served %d verdicts for %d frames", len(streamed), traj.Len())
			}
		})
	}
}

// TestGoldenServedSecondTrajectory guards repeated streams on the network
// path: one service must serve a second, different trajectory, and the
// same trajectory again, with verdicts byte-identical to its offline
// replay (state kept from an earlier stream would change them).
func TestGoldenServedSecondTrajectory(t *testing.T) {
	fold := testFold(t)
	if len(fold.Test) < 2 {
		t.Skip("fold has a single test trajectory")
	}
	ctx := context.Background()
	det := fittedDetector(t, "context-aware")
	_, client := newTestService(t, map[string]safemon.Detector{"context-aware": det}, ManagerConfig{})

	for _, traj := range fold.Test[:2] {
		ref, err := det.Run(ctx, traj)
		if err != nil {
			t.Fatal(err)
		}
		// Stream the same trajectory twice: the second stream must
		// match too.
		for pass := 0; pass < 2; pass++ {
			got, err := client.StreamTrajectory(ctx, "context-aware", traj)
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(wireLines(t, ref.Verdicts), wireLines(t, got)) {
				t.Fatalf("pass %d: served verdicts differ from offline replay", pass)
			}
		}
	}
}
