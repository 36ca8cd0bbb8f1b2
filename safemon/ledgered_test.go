package safemon

import (
	"testing"

	"repro/safemon/guard"
	"repro/safemon/ledger"
)

// testLedgerStore opens a DiskStore in a fresh temporary directory. The
// appender that owns it closes it; cleanup closes it again for tests that
// stop early.
func testLedgerStore(tb testing.TB) *ledger.DiskStore {
	tb.Helper()
	s, err := ledger.OpenDisk(tb.TempDir(), ledger.DiskConfig{})
	if err != nil {
		tb.Fatal(err)
	}
	tb.Cleanup(func() { s.Close() })
	return s
}

// discardStore is a DiskStore whose Append accepts every batch and
// writes nothing. The emit-cost gates time the session step and its
// enqueue: over a real disk the writer falls behind a tight push loop,
// and the loop would partly time Emit's drop branch instead.
type discardStore struct{ *ledger.DiskStore }

func (discardStore) Append([]ledger.Event) error { return nil }

// oneLedgerSession returns a check that every event it sees carries one
// and the same nonzero ledger session ID: a session opened WithLedger is
// one recorded session.
func oneLedgerSession(t *testing.T) func(*ledger.Event) {
	var session uint64
	return func(e *ledger.Event) {
		if session == 0 {
			session = e.Session
		}
		if e.Session == 0 || e.Session != session {
			t.Errorf("%v event carries session %d, want one nonzero session (%d)", e.Kind, e.Session, session)
		}
	}
}

// TestWithLedgerRecordsStream pins the recorded trail of a ledgered
// guarded session for every backend: a session-start carrying the
// ground-truth labels, one verdict event per pushed frame (each with its
// input frame), an action event per guard edge, and a session-end on
// Close — while the verdicts returned to the caller stay byte-identical
// to an unledgered session's.
func TestWithLedgerRecordsStream(t *testing.T) {
	for _, backend := range Backends() {
		t.Run(backend, func(t *testing.T) {
			det := fittedDetector(t, backend)
			traj := testFold(t).Test[0]
			store := testLedgerStore(t)
			app := ledger.NewAppender(store, ledger.Options{})
			defer app.Close()

			plain, err := det.NewSession(WithSessionLabels(traj.Gestures))
			if err != nil {
				t.Fatal(err)
			}
			defer plain.Close()
			sess, err := det.NewSession(
				WithSessionLabels(traj.Gestures),
				WithGuard(guardTestPolicy()),
				WithLedger(app, backend, "v-test"),
			)
			if err != nil {
				t.Fatal(err)
			}
			if _, ok := sess.(GuardedSession); !ok {
				t.Fatalf("ledgered guarded session is %T, lost the guard surface", sess)
			}

			actions := 0
			for i := range traj.Frames {
				want, err := plain.Push(&traj.Frames[i])
				if err != nil {
					t.Fatal(err)
				}
				got, err := sess.Push(&traj.Frames[i])
				if err != nil {
					t.Fatal(err)
				}
				if got != want {
					t.Fatalf("frame %d: ledgered verdict %+v != plain %+v", i, got, want)
				}
				if d := sess.(GuardedSession).Decision(); d.Changed {
					actions++
				}
			}
			if err := sess.Close(); err != nil {
				t.Fatal(err)
			}
			app.Flush()

			var starts, verdicts, acts, ends int
			oneSession := oneLedgerSession(t)
			frame := 0
			store.Scan(0, func(e *ledger.Event) bool {
				oneSession(e)
				switch e.Kind {
				case ledger.KindSessionStart:
					starts++
					if e.Backend != backend || e.Model != "v-test" || e.Policy != "test" {
						t.Errorf("session-start context = %q/%q/%q", e.Backend, e.Model, e.Policy)
					}
					if len(e.Labels) != len(traj.Gestures) {
						t.Errorf("session-start labels = %d, want %d", len(e.Labels), len(traj.Gestures))
					}
				case ledger.KindVerdict:
					if !e.HasInput || e.Input != traj.Frames[frame] {
						t.Errorf("verdict %d lost its input frame", frame)
					}
					frame++
					verdicts++
				case ledger.KindAction:
					acts++
				case ledger.KindSessionEnd:
					ends++
					if e.Note != "close" || int(e.FrameIndex) != traj.Len() {
						t.Errorf("session-end = %q/%d", e.Note, e.FrameIndex)
					}
				}
				return true
			})
			if starts != 1 || verdicts != traj.Len() || acts != actions || ends != 1 {
				t.Fatalf("recorded trail: %d starts, %d verdicts, %d actions (want %d), %d ends",
					starts, verdicts, acts, actions, ends)
			}
		})
	}
}

// TestSessionPushZeroAllocLedgered extends the streaming allocation
// budget to the fully instrumented hot path: a warm session with both a
// guard engine and a ledger recorder attached must still push frames
// with zero heap allocations for every backend — the property that lets
// safemond record everything without GC churn.
func TestSessionPushZeroAllocLedgered(t *testing.T) {
	app := ledger.NewAppender(discardStore{testLedgerStore(t)}, ledger.Options{Queue: 1 << 16})
	defer app.Close()
	for _, backend := range perfBackends() {
		t.Run(backend, func(t *testing.T) {
			det := fittedDetector(t, backend)
			traj := testFold(t).Test[0]
			sess, err := det.NewSession(WithGuard(guardTestPolicy()), WithLedger(app, backend, "v1"))
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
				t.Errorf("%s: warm ledgered Push allocates %.1f objects/frame, want 0", backend, allocs)
			}
		})
	}
}

// TestWithLedgerGuardActionTrail pins that the recorded action events
// match the guard decisions the caller observed frame by frame.
func TestWithLedgerGuardActionTrail(t *testing.T) {
	det := fittedDetector(t, "envelope")
	traj := testFold(t).Test[0]
	store := testLedgerStore(t)
	app := ledger.NewAppender(store, ledger.Options{})
	defer app.Close()
	sess, err := det.NewSession(
		WithSessionLabels(traj.Gestures),
		WithGuard(guardTestPolicy()),
		WithLedger(app, "envelope", "v1"),
	)
	if err != nil {
		t.Fatal(err)
	}
	var want []guard.Decision
	for i := range traj.Frames {
		if _, err := sess.Push(&traj.Frames[i]); err != nil {
			t.Fatal(err)
		}
		if d := sess.(GuardedSession).Decision(); d.Changed {
			want = append(want, d)
		}
	}
	sess.Close()
	app.Flush()
	var got []*ledger.Event
	oneSession := oneLedgerSession(t)
	store.Scan(0, func(e *ledger.Event) bool {
		oneSession(e)
		if e.Kind == ledger.KindAction {
			cp := *e
			got = append(got, &cp)
		}
		return true
	})
	if len(got) != len(want) {
		t.Fatalf("recorded %d action events, observed %d edges", len(got), len(want))
	}
	for i, d := range want {
		e := got[i]
		if e.Action != d.Action || int(e.FrameIndex) != d.FrameIndex ||
			int(e.AlertFrame) != d.AlertFrame || e.Score != d.Score {
			t.Fatalf("action %d: event %+v != decision %+v", i, e, d)
		}
	}
}

// BenchmarkSessionStepLedgered is BenchmarkSessionStep with the full
// guard + ledger instrumentation attached; scripts/benchguard.sh holds
// it to the same 0 allocs/op budget and to 0 dropped/op, and the delta
// against BenchmarkSessionStep is the ledger's hot-path overhead
// reported in BENCH_PR6.json.
func BenchmarkSessionStepLedgered(b *testing.B) {
	app := ledger.NewAppender(discardStore{testLedgerStore(b)}, ledger.Options{Queue: 1 << 16})
	defer app.Close()
	for _, backend := range perfBackends() {
		b.Run(backend, func(b *testing.B) {
			det := fittedDetector(b, backend)
			traj := testFold(b).Test[0]
			sess, err := det.NewSession(WithGuard(guardTestPolicy()), WithLedger(app, backend, "v1"))
			if err != nil {
				b.Fatal(err)
			}
			defer sess.Close()
			for i := range traj.Frames {
				if _, err := sess.Push(&traj.Frames[i]); err != nil {
					b.Fatal(err)
				}
			}
			dropped := app.Stats().Dropped
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := sess.Push(&traj.Frames[i%traj.Len()]); err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(float64(app.Stats().Dropped-dropped)/float64(b.N), "dropped/op")
		})
	}
}
