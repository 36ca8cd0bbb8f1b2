package serve

import (
	"context"
	"errors"
	"io"
	"net/http"
	"sync"
	"testing"
	"time"

	"repro/safemon"
)

// TestMuxEndToEnd multiplexes several concurrent logical sessions over
// one connection and requires each verdict sequence to match the plain
// NDJSON transport exactly, with the codec counters accounting for the
// single shared connection.
func TestMuxEndToEnd(t *testing.T) {
	det := fittedDetector(t, "envelope")
	_, client := newTestService(t, map[string]safemon.Detector{"envelope": det}, ManagerConfig{})
	fold := testFold(t)
	ctx := context.Background()

	refs := make(map[int][]safemon.FrameVerdict)
	for i, traj := range fold.Test {
		ref, err := client.StreamTrajectory(ctx, "envelope", traj)
		if err != nil {
			t.Fatal(err)
		}
		refs[i] = ref
	}

	m, err := client.OpenMux(ctx)
	if err != nil {
		t.Fatal(err)
	}
	defer m.Close()

	const sessions = 8
	var wg sync.WaitGroup
	errc := make(chan error, sessions)
	for i := 0; i < sessions; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			ti := i % len(fold.Test)
			verdicts, _, err := m.StreamTrajectory(ctx, "envelope", "", fold.Test[ti])
			if err != nil {
				errc <- err
				return
			}
			ref := refs[ti]
			if len(verdicts) != len(ref) {
				errc <- errors.New("verdict count mismatch")
				return
			}
			for j := range verdicts {
				if verdicts[j] != ref[j] {
					errc <- errors.New("verdict value mismatch")
					return
				}
			}
		}(i)
	}
	wg.Wait()
	close(errc)
	for err := range errc {
		t.Fatal(err)
	}

	scrape := scrapeMetrics(t, client.httpClient(), client.BaseURL+"/metrics")
	conns := scrape.get(t, "safemon_mux_connections_total")
	muxed := scrape.get(t, "safemon_mux_sessions_total")
	if conns != 1 || muxed != sessions {
		t.Fatalf("mux = %v connections / %v sessions, want 1 carrying %d", conns, muxed, sessions)
	}
}

// TestMuxPerSessionOpenErrors pins that a rejected open costs only its
// own sid: the connection keeps serving other sessions afterwards.
func TestMuxPerSessionOpenErrors(t *testing.T) {
	det := fittedDetector(t, "envelope")
	_, client := newTestService(t, map[string]safemon.Detector{"envelope": det}, ManagerConfig{})
	ctx := context.Background()

	m, err := client.OpenMux(ctx)
	if err != nil {
		t.Fatal(err)
	}
	defer m.Close()

	if _, err := m.Open(ctx, "no-such-backend", "", nil); !isHTTPError(err, http.StatusNotFound) {
		t.Fatalf("unknown backend open: %v, want per-sid 404", err)
	}
	if _, err := m.Open(ctx, "envelope", "no-such-policy", nil); !isHTTPError(err, http.StatusNotFound) {
		t.Fatalf("unknown policy open: %v, want per-sid 404", err)
	}

	// The same connection still admits a valid session.
	traj := testFold(t).Test[0]
	verdicts, _, err := m.StreamTrajectory(ctx, "envelope", "", traj)
	if err != nil {
		t.Fatal(err)
	}
	if len(verdicts) != traj.Len() {
		t.Fatalf("served %d verdicts for %d frames", len(verdicts), traj.Len())
	}
}

// TestMuxBadPayloadFailsOneSession injects a malformed frame record for
// one sid and requires a per-sid 400 while the sibling session keeps
// streaming on the same connection.
func TestMuxBadPayloadFailsOneSession(t *testing.T) {
	det := fittedDetector(t, "envelope")
	_, client := newTestService(t, map[string]safemon.Detector{"envelope": det}, ManagerConfig{})
	ctx := context.Background()

	m, err := client.OpenMux(ctx)
	if err != nil {
		t.Fatal(err)
	}
	defer m.Close()
	st1, err := m.Open(ctx, "envelope", "", nil)
	if err != nil {
		t.Fatal(err)
	}
	st2, err := m.Open(ctx, "envelope", "", nil)
	if err != nil {
		t.Fatal(err)
	}

	// A ragged frame payload under st1's sid: framing is intact, so only
	// st1 must die.
	m.wmu.Lock()
	_, err = m.bw.w.Write(encodeRaw(BinFrame, st1.sid, make([]byte, 16)))
	m.wmu.Unlock()
	if err != nil {
		t.Fatal(err)
	}
	if _, err := st1.Recv(); !isHTTPError(err, http.StatusBadRequest) {
		t.Fatalf("bad payload session: %v, want per-sid 400", err)
	}

	traj := testFold(t).Test[0]
	for i := 0; i < 5; i++ {
		if err := st2.Send(&traj.Frames[i]); err != nil {
			t.Fatal(err)
		}
		if v, err := st2.Recv(); err != nil || v.FrameIndex != i {
			t.Fatalf("sibling frame %d: verdict %+v err %v", i, v, err)
		}
	}
	if err := st2.CloseSend(); err != nil {
		t.Fatal(err)
	}
	if _, err := st2.Recv(); err != io.EOF {
		t.Fatalf("sibling close: %v, want io.EOF done", err)
	}
}

// TestMuxFramingErrorKillsConnection pins the other half of the error
// taxonomy: a record whose framing is broken (length over the cap)
// poisons the byte stream, so the server fails the whole connection with
// a sid-0 error.
func TestMuxFramingErrorKillsConnection(t *testing.T) {
	det := fittedDetector(t, "envelope")
	_, client := newTestService(t, map[string]safemon.Detector{"envelope": det}, ManagerConfig{})
	ctx := context.Background()

	m, err := client.OpenMux(ctx)
	if err != nil {
		t.Fatal(err)
	}
	defer m.Close()
	st, err := m.Open(ctx, "envelope", "", nil)
	if err != nil {
		t.Fatal(err)
	}

	m.wmu.Lock()
	_, err = m.bw.w.Write(appendBinHeader(nil, BinFrame, st.sid, maxRecordBytes+1))
	m.wmu.Unlock()
	if err != nil {
		t.Fatal(err)
	}
	if _, err := st.Recv(); !isHTTPError(err, http.StatusBadRequest) {
		t.Fatalf("framing error: %v, want connection-level 400", err)
	}
}

// TestMuxPerSessionBackpressure floods one logical session faster than
// its slow backend drains and requires a per-sid 429 record — never an
// HTTP status or a connection teardown — counted once in
// safemon_queue_full_total, while the connection survives.
func TestMuxPerSessionBackpressure(t *testing.T) {
	srv, err := NewServer(Config{
		Detectors: map[string]safemon.Detector{"stub": &stubDetector{delay: 50 * time.Millisecond}},
		Manager:   ManagerConfig{EnqueueTimeout: 5 * time.Millisecond},
	})
	if err != nil {
		t.Fatal(err)
	}
	ts := newHTTPTestServer(t, srv)
	client := &Client{BaseURL: ts.URL, HTTPClient: ts.Client()}
	ctx := context.Background()

	m, err := client.OpenMux(ctx)
	if err != nil {
		t.Fatal(err)
	}
	defer m.Close()
	st, err := m.Open(ctx, "stub", "", nil)
	if err != nil {
		t.Fatal(err)
	}

	// muxInDepth frames fit the routing channel; pushing well past it
	// while the stub sleeps must trip the per-sid timeout.
	var frame safemon.Frame
	for i := 0; i < muxInDepth+32; i++ {
		if err := st.Send(&frame); err != nil {
			t.Fatalf("send %d: %v", i, err)
		}
	}
	deadline := time.After(30 * time.Second)
	for {
		done := make(chan struct{})
		var v safemon.FrameVerdict
		var rerr error
		go func() { v, rerr = st.Recv(); close(done) }()
		select {
		case <-done:
		case <-deadline:
			t.Fatal("timed out waiting for the per-sid 429")
		}
		if rerr == nil {
			_ = v
			continue
		}
		if !isHTTPError(rerr, http.StatusTooManyRequests) {
			t.Fatalf("flooded session: %v, want per-sid 429", rerr)
		}
		break
	}
	if got := serverMetrics(t, srv).get(t, `safemon_queue_full_total{codec="binary-mux"}`); got != 1 {
		t.Errorf("queue-full counter = %v after one per-sid 429, want 1", got)
	}

	// The connection survived: a fresh session on it still works.
	st2, err := m.Open(ctx, "stub", "", nil)
	if err != nil {
		t.Fatalf("open after 429: %v", err)
	}
	if err := st2.Send(&frame); err != nil {
		t.Fatal(err)
	}
	if _, err := st2.Recv(); err != nil {
		t.Fatalf("fresh session after 429: %v", err)
	}
}

// TestMuxAbandonedOpenReleasesSlot pins that an Open given up on after
// its open record went out closes its sid: the server ends the session
// and frees its MaxSessions slot, so the next Open on the same
// connection is admitted instead of answered 429 until the connection
// ends.
func TestMuxAbandonedOpenReleasesSlot(t *testing.T) {
	det := fittedDetector(t, "envelope")
	srv, client := newTestService(t, map[string]safemon.Detector{"envelope": det}, ManagerConfig{MaxSessions: 1})
	ctx := context.Background()
	m, err := client.OpenMux(ctx)
	if err != nil {
		t.Fatal(err)
	}
	defer m.Close()

	cancelled, cancel := context.WithCancel(ctx)
	cancel()
	if _, err := m.Open(cancelled, "envelope", "", nil); err == nil {
		t.Fatal("Open with a cancelled context succeeded")
	}
	deadline := time.Now().Add(5 * time.Second)
	for serverMetrics(t, srv).sum("safemon_sessions_closed_total") < 1 {
		if time.Now().After(deadline) {
			t.Fatal("abandoned session never released")
		}
		time.Sleep(5 * time.Millisecond)
	}
	verdicts, _, err := m.StreamTrajectory(ctx, "envelope", "", testFold(t).Test[0])
	if err != nil {
		t.Fatalf("open after the abandoned one: %v", err)
	}
	if len(verdicts) != testFold(t).Test[0].Len() {
		t.Fatalf("%d verdicts, want %d", len(verdicts), testFold(t).Test[0].Len())
	}
}
