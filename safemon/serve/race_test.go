package serve

import (
	"bytes"
	"context"
	"fmt"
	"net/http/httptest"
	"runtime"
	"slices"
	"sync"
	"testing"

	"repro/internal/testutil"
	"repro/safemon"
)

// TestServeConcurrentSessionsRace soaks the session manager: 64
// concurrent NDJSON sessions over one shared trained network, a third of
// them cancelled mid-stream, then a full drain — run under -race by make
// ci, with a goroutine-count check for leaks. Every stream that completes
// must equal (==) the offline replay of its trajectory, verdict for verdict.
func TestServeConcurrentSessionsRace(t *testing.T) {
	fold := testFold(t)
	det := fittedDetector(t, "context-aware") // one shared trained network
	env := fittedDetector(t, "envelope")

	// refs[backend][k] is the offline replay of fold.Test[k].
	refs := map[string][][]safemon.FrameVerdict{}
	for name, d := range map[string]safemon.Detector{"context-aware": det, "envelope": env} {
		for _, traj := range fold.Test {
			trace, err := d.Run(context.Background(), traj)
			if err != nil {
				t.Fatal(err)
			}
			refs[name] = append(refs[name], trace.Verdicts)
		}
	}

	baseline := runtime.NumGoroutine()
	srv, err := NewServer(Config{
		Detectors: map[string]safemon.Detector{"context-aware": det, "envelope": env},
	})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv.Handler())
	client := &Client{BaseURL: ts.URL, HTTPClient: ts.Client()}

	const sessions = 64
	var wg sync.WaitGroup
	errs := make(chan error, sessions)
	for i := 0; i < sessions; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			backend := "context-aware"
			if i%2 == 1 {
				backend = "envelope"
			}
			k := i % len(fold.Test)
			traj := fold.Test[k]
			ctx, cancel := context.WithCancel(context.Background())
			defer cancel()
			if i%3 == 0 {
				// Cancel mid-stream: after roughly half the frames the
				// context dies and the connection is torn down.
				st, err := client.Open(ctx, backend, traj.Gestures)
				if err != nil {
					errs <- err
					return
				}
				defer st.Close()
				for j := 0; j < len(traj.Frames)/2; j++ {
					if err := st.Send(&traj.Frames[j]); err != nil {
						return // server or transport gave up first: fine
					}
					if _, err := st.Recv(); err != nil {
						return
					}
				}
				cancel()
				return
			}
			got, err := client.StreamTrajectory(ctx, backend, traj)
			if err != nil {
				errs <- fmt.Errorf("session %d (%s): %w", i, backend, err)
				return
			}
			if !slices.Equal(refs[backend][k], got) {
				errs <- fmt.Errorf("session %d (%s): verdicts diverge from offline replay", i, backend)
			}
		}(i)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}

	// Drain: no stream is in flight, so shutdown must complete and leave
	// no goroutines behind.
	ts.Close()
	srv.Shutdown()
	testutil.WaitGoroutines(t, baseline, 4)

	if active := serverMetrics(t, srv).activeSessions(); active != 0 {
		t.Errorf("%v sessions still active after drain", active)
	}
}

// TestServedVerdictsUnderContention re-checks byte identity while the
// service is loaded: 16 concurrent streams of the same trajectory must all
// equal the offline replay exactly (shared trained network, -race).
func TestServedVerdictsUnderContention(t *testing.T) {
	fold := testFold(t)
	det := fittedDetector(t, "context-aware")
	_, client := newTestService(t, map[string]safemon.Detector{"context-aware": det}, ManagerConfig{})
	traj := fold.Test[0]
	ref, err := det.Run(context.Background(), traj)
	if err != nil {
		t.Fatal(err)
	}
	want := wireLines(t, ref.Verdicts)

	const sessions = 16
	var wg sync.WaitGroup
	errs := make(chan error, sessions)
	for i := 0; i < sessions; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			got, err := client.StreamTrajectory(context.Background(), "context-aware", traj)
			if err != nil {
				errs <- err
				return
			}
			if !bytes.Equal(want, wireLines(t, got)) {
				errs <- fmt.Errorf("session %d verdicts diverge from offline replay", i)
			}
		}(i)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
}
