package safemon

import (
	"bytes"
	"context"
	"testing"
)

// perfBackends lists every registered backend; the allocation-budget suite
// and the session-step benchmarks cover all of them so no backend can
// silently regain a per-frame allocation.
func perfBackends() []string { return Backends() }

// warmSession returns a session for the backend that has already processed
// one full trajectory, so its sliding windows and scratch buffers are at
// steady state.
func warmSession(t testing.TB, backend string) (Session, *Trajectory) {
	t.Helper()
	return warmSessionOf(t, fittedDetector(t, backend))
}

// warmLoadedSession is warmSession over the artifact-loaded twin of the
// backend's fitted fixture.
func warmLoadedSession(t testing.TB, backend string) (Session, *Trajectory) {
	t.Helper()
	return warmSessionOf(t, loadedDetector(t, backend))
}

func warmSessionOf(t testing.TB, det Detector) (Session, *Trajectory) {
	t.Helper()
	fold := testFold(t)
	traj := fold.Test[0]
	sess, err := det.NewSession()
	if err != nil {
		t.Fatal(err)
	}
	for i := range traj.Frames {
		if _, err := sess.Push(&traj.Frames[i]); err != nil {
			sess.Close()
			t.Fatal(err)
		}
	}
	return sess, traj
}

// TestSessionPushZeroAlloc is the allocation budget of the streaming hot
// path: a warm session of every registered backend must process a frame
// with zero heap allocations. This is the property that keeps high
// session-count safemond serving free of GC churn; any regression here
// fails CI (see also scripts/benchguard.sh, which guards the benchmark
// numbers the same way).
func TestSessionPushZeroAlloc(t *testing.T) {
	for _, backend := range perfBackends() {
		t.Run(backend, func(t *testing.T) {
			sess, traj := warmSession(t, backend)
			defer sess.Close()
			i := 0
			allocs := testing.AllocsPerRun(200, func() {
				if _, err := sess.Push(&traj.Frames[i%traj.Len()]); err != nil {
					t.Fatal(err)
				}
				i++
			})
			if allocs != 0 {
				t.Errorf("%s: warm Session.Push allocates %.1f objects/frame, want 0", backend, allocs)
			}
		})
	}
}

// TestSessionPushZeroAllocLoaded extends the allocation budget to the
// artifact path: a detector reconstructed with LoadDetector must satisfy
// the same zero-allocation warm-push invariant as its fitted twin, so
// serving from artifacts costs nothing on the hot path.
func TestSessionPushZeroAllocLoaded(t *testing.T) {
	for _, backend := range perfBackends() {
		t.Run(backend, func(t *testing.T) {
			sess, traj := warmLoadedSession(t, backend)
			defer sess.Close()
			i := 0
			allocs := testing.AllocsPerRun(200, func() {
				if _, err := sess.Push(&traj.Frames[i%traj.Len()]); err != nil {
					t.Fatal(err)
				}
				i++
			})
			if allocs != 0 {
				t.Errorf("%s: warm loaded Session.Push allocates %.1f objects/frame, want 0", backend, allocs)
			}
		})
	}
}

// BenchmarkSessionStep measures the per-frame latency and allocation count
// of a warm streaming session for every registered backend — the Table VIII
// "computation time" axis, one sub-benchmark per backend. Run with
// -benchmem; scripts/benchguard.sh fails CI when allocs/op leaves zero.
func BenchmarkSessionStep(b *testing.B) {
	for _, backend := range perfBackends() {
		b.Run(backend, func(b *testing.B) {
			sess, traj := warmSession(b, backend)
			defer sess.Close()
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := sess.Push(&traj.Frames[i%traj.Len()]); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkSessionStepLoaded is BenchmarkSessionStep over artifact-loaded
// detectors; scripts/benchguard.sh holds it to the same 0 allocs/op budget.
func BenchmarkSessionStepLoaded(b *testing.B) {
	for _, backend := range perfBackends() {
		b.Run(backend, func(b *testing.B) {
			sess, traj := warmLoadedSession(b, backend)
			defer sess.Close()
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := sess.Push(&traj.Frames[i%traj.Len()]); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkSessionStepPrepared times the served step of the backends
// whose Prepare does work: each iteration runs Prepare with the timer
// stopped, as safemond does between frames, and times the Push that
// follows, the part a verdict waits for. scripts/benchguard.sh gates it at
// 0 allocs/op and a budget far below BenchmarkSessionStep's, so a Push
// that ignores its prepared prefix fails the gate.
func BenchmarkSessionStepPrepared(b *testing.B) {
	for _, backend := range []string{"context-aware", "lookahead"} {
		b.Run(backend, func(b *testing.B) {
			sess, traj := warmSession(b, backend)
			defer sess.Close()
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				b.StopTimer()
				sess.Prepare()
				b.StartTimer()
				if _, err := sess.Push(&traj.Frames[i%traj.Len()]); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkSessionOpen times NewSession and Close on every backend's
// fitted fixture: what a stream pays once, since serve opens one session
// per stream. Run it with -benchmem for the bytes and allocations of an
// open; an open allocates by design, so scripts/benchguard.sh leaves it
// out.
func BenchmarkSessionOpen(b *testing.B) {
	for _, backend := range perfBackends() {
		b.Run(backend, func(b *testing.B) {
			det := fittedDetector(b, backend)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				sess, err := det.NewSession()
				if err != nil {
					b.Fatal(err)
				}
				sess.Close()
			}
		})
	}
}

// BenchmarkColdStart is the model-lifecycle headline: time-to-ready for a
// detector via Fit (train on the shared fold) versus Load (decode the
// fitted fixture's artifact). The ratio is why safemond serves from
// artifacts; BENCH_PR4.json records both per backend.
func BenchmarkColdStart(b *testing.B) {
	fold := testFold(b)
	ctx := context.Background()
	b.Run("fit", func(b *testing.B) {
		for _, backend := range perfBackends() {
			b.Run(backend, func(b *testing.B) {
				for i := 0; i < b.N; i++ {
					det, err := Open(backend, quickOptions(backend)...)
					if err != nil {
						b.Fatal(err)
					}
					if err := det.Fit(ctx, fold.Train); err != nil {
						b.Fatal(err)
					}
				}
			})
		}
	})
	b.Run("load", func(b *testing.B) {
		for _, backend := range perfBackends() {
			b.Run(backend, func(b *testing.B) {
				art := saveArtifact(b, fittedDetector(b, backend))
				b.ReportAllocs()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					det, err := LoadDetector(bytes.NewReader(art))
					if err != nil {
						b.Fatal(err)
					}
					if det == nil {
						b.Fatal("nil detector")
					}
				}
			})
		}
	})
}
