package serve

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"net/http/httptest"
	"slices"
	"testing"

	"repro/safemon"
	"repro/safemon/guard"
)

// TestGoldenVerdictsAcrossCodecs is the cross-codec leg of the golden
// suite: for every registered backend, one fixed trajectory must yield
// verdicts exactly == across the offline Runner, the NDJSON stream and a
// multiplexed binary session. The binary codec carries float64 bits
// verbatim, so equality is exact, not approximate — any divergence is a
// codec bug, never rounding.
func TestGoldenVerdictsAcrossCodecs(t *testing.T) {
	fold := testFold(t)
	traj := fold.Test[0]
	ctx := context.Background()

	for _, backend := range []string{"context-aware", "lookahead", "monolithic", "envelope", "skipchain", "sdsdl", "cascade"} {
		t.Run(backend, func(t *testing.T) {
			det := fittedDetector(t, backend)
			traces, err := (&safemon.Runner{Detector: det, Workers: 1}).Traces(ctx, []*safemon.Trajectory{traj})
			if err != nil {
				t.Fatal(err)
			}
			ref := traces[0].Verdicts

			_, client := newTestService(t, map[string]safemon.Detector{backend: det}, ManagerConfig{})

			runs := map[string][]safemon.FrameVerdict{}
			jsonVerdicts, err := client.StreamTrajectory(ctx, backend, traj)
			if err != nil {
				t.Fatal(err)
			}
			runs["ndjson"] = jsonVerdicts

			m, err := client.OpenMux(ctx)
			if err != nil {
				t.Fatal(err)
			}
			defer m.Close()
			muxVerdicts, _, err := m.StreamTrajectory(ctx, backend, "", traj)
			if err != nil {
				t.Fatal(err)
			}
			runs["binary-mux"] = muxVerdicts

			for name, got := range runs {
				if len(got) != len(ref) {
					t.Fatalf("%s: %d verdicts, Runner has %d", name, len(got), len(ref))
				}
				for i := range got {
					if got[i] != ref[i] {
						t.Fatalf("%s verdict %d: got %+v, Runner %+v", name, i, got[i], ref[i])
					}
				}
			}
			// And the byte-identity contract still holds through the wire
			// type for every transport.
			refLines := wireLines(t, ref)
			for name, got := range runs {
				if !bytes.Equal(refLines, wireLines(t, got)) {
					t.Fatalf("%s: wire bytes differ from Runner", name)
				}
			}
		})
	}
}

// TestGoldenGuardedAcrossCodecs extends the cross-codec contract to
// guarded streams and pins the one guard path: for every registered
// backend, a held-out trajectory with a wild stretch must yield the same
// verdicts and guard action records over NDJSON, over a multiplexed
// binary session, and from an offline safemon.WithGuard session on the
// same detector. Envelope and context-aware must act at least once, so
// the check cannot pass on empty trails.
func TestGoldenGuardedAcrossCodecs(t *testing.T) {
	policy := guard.Policy{
		Name: "golden", Threshold: 0.5,
		DebounceFrames: 2, ReleaseFrames: 2, EscalateFrames: 2,
		InitialAction: guard.ActionWarn, MaxAction: guard.ActionSafeStop,
		ReactionBudgetFrames: 5,
	}
	held := testFold(t).Test[0]
	traj := *held
	traj.Frames = append([]safemon.Frame(nil), held.Frames...)
	for i := len(traj.Frames) / 2; i < len(traj.Frames)/2+8; i++ {
		for j := range traj.Frames[i] {
			traj.Frames[i][j] += 50
		}
	}
	labels := trajectoryLabels(&traj)
	ctx := context.Background()

	type run struct {
		verdicts []safemon.FrameVerdict
		actions  []ActionMsg
	}
	drive := func(send func(*safemon.Frame) error, recv func() (safemon.FrameVerdict, error),
		closeSend func() error, actions func() []ActionMsg) (run, error) {
		var out run
		for i := range traj.Frames {
			if err := send(&traj.Frames[i]); err != nil {
				return out, fmt.Errorf("send %d: %w", i, err)
			}
			v, err := recv()
			if err != nil {
				return out, fmt.Errorf("recv %d: %w", i, err)
			}
			out.verdicts = append(out.verdicts, v)
		}
		if err := closeSend(); err != nil {
			return out, err
		}
		if _, err := recv(); err != io.EOF {
			return out, fmt.Errorf("want done, got %v", err)
		}
		out.actions = actions()
		return out, nil
	}

	for _, backend := range safemon.Backends() {
		t.Run(backend, func(t *testing.T) {
			det := fittedDetector(t, backend)
			sess, err := det.NewSession(safemon.WithSessionLabels(labels), safemon.WithGuard(policy))
			if err != nil {
				t.Fatal(err)
			}
			defer sess.Close()
			g := sess.(safemon.GuardedSession)
			var offline run
			for i := range traj.Frames {
				v, err := sess.Push(&traj.Frames[i])
				if err != nil {
					t.Fatal(err)
				}
				offline.verdicts = append(offline.verdicts, v)
				if d := g.Decision(); d.Changed {
					offline.actions = append(offline.actions, ActionMsg{I: d.FrameIndex, Level: d.Action.String(),
						AlertFrame: d.AlertFrame, Score: d.Score, Policy: policy.Name})
				}
			}
			if (backend == "envelope" || backend == "context-aware") && len(offline.actions) == 0 {
				t.Fatal("the offline guarded run produced no actions")
			}

			srv, err := NewServer(Config{Detectors: map[string]safemon.Detector{backend: det}, Policies: []guard.Policy{policy}})
			if err != nil {
				t.Fatal(err)
			}
			ts := httptest.NewServer(srv.Handler())
			defer srv.Shutdown()
			defer ts.Close()
			client := &Client{BaseURL: ts.URL, HTTPClient: ts.Client()}

			runs := map[string]run{}
			js, err := client.OpenGuarded(ctx, backend, policy.Name, labels)
			if err != nil {
				t.Fatal(err)
			}
			out, err := drive(js.Send, js.Recv, js.CloseSend, js.Actions)
			js.Close()
			if err != nil {
				t.Fatalf("ndjson: %v", err)
			}
			runs["ndjson"] = out
			m, err := client.OpenMux(ctx)
			if err != nil {
				t.Fatal(err)
			}
			defer m.Close()
			st, err := m.Open(ctx, backend, policy.Name, labels)
			if err != nil {
				t.Fatal(err)
			}
			if out, err = drive(st.Send, st.Recv, st.CloseSend, st.Actions); err != nil {
				t.Fatalf("binary-mux: %v", err)
			}
			runs["binary-mux"] = out

			for name, got := range runs {
				if !slices.Equal(got.verdicts, offline.verdicts) {
					t.Errorf("%s: verdicts diverge from the offline guarded session", name)
				}
				if !slices.Equal(got.actions, offline.actions) {
					t.Errorf("%s: actions diverge from the offline guarded session:\n got  %+v\n want %+v",
						name, got.actions, offline.actions)
				}
			}
		})
	}
}
