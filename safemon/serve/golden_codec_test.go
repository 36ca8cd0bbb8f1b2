package serve

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"testing"

	"repro/safemon"
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
// guarded streams: verdicts and guard action records must agree exactly
// across the NDJSON and multiplexed binary transports running the same
// policy over the same frames.
func TestGoldenGuardedAcrossCodecs(t *testing.T) {
	_, client := newGuardedService(t, testGuardPolicy())
	ctx := context.Background()
	safe, wild := guardProbeFrames(t)
	var frames []safemon.Frame
	for i := 0; i < 5; i++ {
		frames = append(frames, safe)
	}
	for i := 0; i < 4; i++ {
		frames = append(frames, wild)
	}
	for i := 0; i < 5; i++ {
		frames = append(frames, safe)
	}

	type run struct {
		verdicts []safemon.FrameVerdict
		actions  []ActionMsg
	}
	drive := func(send func(*safemon.Frame) error, recv func() (safemon.FrameVerdict, error),
		closeSend func() error, actions func() []ActionMsg) (run, error) {
		var out run
		for i := range frames {
			if err := send(&frames[i]); err != nil {
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

	runs := map[string]run{}
	js, err := client.OpenGuarded(ctx, "envelope", "stop-fast", nil)
	if err != nil {
		t.Fatal(err)
	}
	out, err := drive(js.Send, js.Recv, js.CloseSend, js.Actions)
	js.Close()
	if err != nil {
		t.Fatalf("json: %v", err)
	}
	runs["json"] = out
	m, err := client.OpenMux(ctx)
	if err != nil {
		t.Fatal(err)
	}
	defer m.Close()
	st, err := m.Open(ctx, "envelope", "stop-fast", nil)
	if err != nil {
		t.Fatal(err)
	}
	out, err = drive(st.Send, st.Recv, st.CloseSend, st.Actions)
	if err != nil {
		t.Fatalf("binary-mux: %v", err)
	}
	runs["binary-mux"] = out

	ref := runs["json"]
	if len(ref.actions) == 0 {
		t.Fatal("guarded reference run produced no actions")
	}
	for name, got := range runs {
		if fmt.Sprintf("%+v", got.verdicts) != fmt.Sprintf("%+v", ref.verdicts) {
			t.Errorf("%s: verdicts diverge from NDJSON", name)
		}
		if fmt.Sprintf("%+v", got.actions) != fmt.Sprintf("%+v", ref.actions) {
			t.Errorf("%s: actions diverge from NDJSON:\n got  %+v\n want %+v", name, got.actions, ref.actions)
		}
	}
}
