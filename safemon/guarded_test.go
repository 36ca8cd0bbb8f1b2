package safemon

import (
	"testing"

	"repro/safemon/guard"
)

// guardTestPolicy is a hair-trigger policy that reacts to any score; the
// session wrapper tests only need the engine to move.
func guardTestPolicy() guard.Policy {
	return guard.Policy{
		Name: "test", Threshold: 1e-9,
		DebounceFrames: 1, ReleaseFrames: 1, EscalateFrames: 1,
	}
}

// TestWithGuardWrapsEveryBackend pins that WithGuard yields a
// GuardedSession for every registered backend, that it reports no
// episode before the first push (AlertFrame -1, as guard.Decision
// documents), and that verdicts are unchanged by the wrapper.
func TestWithGuardWrapsEveryBackend(t *testing.T) {
	for _, backend := range Backends() {
		t.Run(backend, func(t *testing.T) {
			det := fittedDetector(t, backend)
			traj := testFold(t).Test[0]

			plain, err := det.NewSession(WithSessionLabels(traj.Gestures))
			if err != nil {
				t.Fatal(err)
			}
			defer plain.Close()
			sess, err := det.NewSession(WithSessionLabels(traj.Gestures), WithGuard(guardTestPolicy()))
			if err != nil {
				t.Fatal(err)
			}
			defer sess.Close()
			gs, ok := sess.(GuardedSession)
			if !ok {
				t.Fatalf("WithGuard session is %T, not GuardedSession", sess)
			}
			if d := gs.Decision(); d.Action != guard.ActionNone || d.AlertFrame != -1 {
				t.Errorf("decision before the first push = %+v", d)
			}

			for i := range traj.Frames {
				want, err := plain.Push(&traj.Frames[i])
				if err != nil {
					t.Fatal(err)
				}
				got, err := gs.Push(&traj.Frames[i])
				if err != nil {
					t.Fatal(err)
				}
				if got != want {
					t.Fatalf("frame %d: guarded verdict %+v != plain %+v", i, got, want)
				}
				if d := gs.Decision(); d.FrameIndex != want.FrameIndex {
					t.Fatalf("frame %d: decision tracks frame %d", i, d.FrameIndex)
				}
			}
			if c := gs.GuardCounters(); c.Frames != uint64(traj.Len()) {
				t.Errorf("engine saw %d frames, want %d", c.Frames, traj.Len())
			}
			if gs.GuardPolicy().Name != "test" {
				t.Errorf("policy = %q", gs.GuardPolicy().Name)
			}
		})
	}
}

// TestWithGuardInvalidPolicy pins that a bad policy fails at session-open
// time, not mid-stream.
func TestWithGuardInvalidPolicy(t *testing.T) {
	det := fittedDetector(t, "envelope")
	_, err := det.NewSession(WithGuard(guard.Policy{Threshold: -1}))
	if err == nil {
		t.Fatal("invalid guard policy accepted")
	}
}

// TestSessionPushZeroAllocGuarded extends the streaming allocation budget
// to guarded sessions: the policy engine must add zero allocations to the
// warm per-frame path of every backend.
func TestSessionPushZeroAllocGuarded(t *testing.T) {
	for _, backend := range perfBackends() {
		t.Run(backend, func(t *testing.T) {
			det := fittedDetector(t, backend)
			fold := testFold(t)
			traj := fold.Test[0]
			sess, err := det.NewSession(WithGuard(guardTestPolicy()))
			if err != nil {
				t.Fatal(err)
			}
			defer sess.Close()
			for i := range traj.Frames {
				if _, err := sess.Push(&traj.Frames[i]); err != nil {
					t.Fatal(err)
				}
			}
			i := 0
			allocs := testing.AllocsPerRun(200, func() {
				if _, err := sess.Push(&traj.Frames[i%traj.Len()]); err != nil {
					t.Fatal(err)
				}
				i++
			})
			if allocs != 0 {
				t.Errorf("%s: warm guarded Push allocates %.1f objects/frame, want 0", backend, allocs)
			}
		})
	}
}
