package serve

import (
	"context"
	"errors"
	"io"
	"math"
	"net/http"
	"runtime"
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

// TestMuxPerSessionBackpressure floods one logical session while its
// backend holds the session's first frame, and requires a per-sid 429
// record — never an HTTP status or a connection teardown — before the
// backend lets go, counted once in safemon_queue_full_total. A second
// sid on the same connection streams lockstep through the flood, and the
// connection survives it.
func TestMuxPerSessionBackpressure(t *testing.T) {
	gate := make(chan struct{})
	srv, err := NewServer(Config{
		Detectors: map[string]safemon.Detector{"stub": &stubDetector{gate: gate}, "free": &stubDetector{}},
	})
	if err != nil {
		t.Fatal(err)
	}
	ts := newHTTPTestServer(t, srv)
	release := sync.OnceFunc(func() { close(gate) })
	t.Cleanup(release)
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
	other, err := m.Open(ctx, "free", "", nil)
	if err != nil {
		t.Fatal(err)
	}

	// The stub holds the first frame, muxInDepth more fill the session's
	// queue, and the one after overflows it.
	var frame safemon.Frame
	for i := 0; i < muxInDepth+2; i++ {
		if err := st.Send(&frame); err != nil {
			t.Fatalf("send %d: %v", i, err)
		}
	}
	for i := 0; i < 2*muxInDepth; i++ {
		if err := other.Send(&frame); err != nil {
			t.Fatal(err)
		}
		if v, err := other.Recv(); err != nil || v.FrameIndex != i {
			t.Fatalf("other sid frame %d: verdict %+v err %v", i, v, err)
		}
	}
	got := make(chan error, 1)
	go func() { _, err := st.Recv(); got <- err }()
	select {
	case err := <-got:
		if !isHTTPError(err, http.StatusTooManyRequests) {
			t.Fatalf("flooded session: %v, want per-sid 429", err)
		}
	case <-time.After(30 * time.Second):
		t.Fatal("no per-sid 429 while the stub held the session's first frame")
	}
	release()
	if got := serverMetrics(t, srv).get(t, `safemon_queue_full_total{codec="binary-mux"}`); got != 1 {
		t.Errorf("queue-full counter = %v after one per-sid 429, want 1", got)
	}
	if err := other.CloseSend(); err != nil {
		t.Fatal(err)
	}
	if _, err := other.Recv(); err != io.EOF {
		t.Fatalf("other sid close: %v, want io.EOF done", err)
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

// TestMuxSessionEndReasons pins the ledger end reason of every way a
// /v1/mux session ends. Each case streams on a backend of its own, so
// its session-end event names the case.
func TestMuxSessionEndReasons(t *testing.T) {
	gate := make(chan struct{})
	srv, client, app := newLedgeredService(t, map[string]safemon.Detector{
		"close":      &stubDetector{},
		"half-close": &stubDetector{},
		"flood":      &stubDetector{gate: gate},
		"bad-record": &stubDetector{},
		"framing":    &stubDetector{},
		"push":       &panicDetector{},
		"prepare":    &panicDetector{},
	})
	release := sync.OnceFunc(func() { close(gate) })
	t.Cleanup(release)
	ctx := context.Background()
	openMux := func() *MuxConn {
		t.Helper()
		m, err := client.OpenMux(ctx)
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { m.Close() })
		return m
	}
	open := func(m *MuxConn, backend string) *MuxStream {
		t.Helper()
		st, err := m.Open(ctx, backend, "", nil)
		if err != nil {
			t.Fatalf("%s: open: %v", backend, err)
		}
		return st
	}
	wantErr := func(st *MuxStream, backend string, code int) {
		t.Helper()
		if _, err := st.Recv(); !isHTTPError(err, code) {
			t.Fatalf("%s: %v, want a %d error record", backend, err, code)
		}
	}
	var frame safemon.Frame
	step := func(st *MuxStream, backend string) {
		t.Helper()
		if err := st.Send(&frame); err != nil {
			t.Fatalf("%s: send: %v", backend, err)
		}
		if _, err := st.Recv(); err != nil {
			t.Fatalf("%s: recv: %v", backend, err)
		}
	}

	m := openMux()
	st := open(m, "close")
	step(st, "close")
	if err := st.CloseSend(); err != nil {
		t.Fatal(err)
	}
	if _, err := st.Recv(); err != io.EOF {
		t.Fatalf("close: %v, want io.EOF done", err)
	}

	st = open(m, "flood")
	for i := 0; i < muxInDepth+2; i++ {
		if err := st.Send(&frame); err != nil {
			t.Fatalf("flood: send %d: %v", i, err)
		}
	}
	wantErr(st, "flood", http.StatusTooManyRequests)
	release()

	st = open(m, "bad-record")
	bad := frame
	bad[0] = math.NaN()
	if err := st.Send(&bad); err != nil {
		t.Fatal(err)
	}
	wantErr(st, "bad-record", http.StatusBadRequest)

	st = open(m, "push")
	boom := frame
	boom[0] = panicTrigger
	if err := st.Send(&boom); err != nil {
		t.Fatal(err)
	}
	wantErr(st, "push", http.StatusInternalServerError)

	st = open(m, "prepare")
	trigger := frame
	trigger[0] = prepareTrigger
	if err := st.Send(&trigger); err != nil {
		t.Fatal(err)
	}
	if _, err := st.Recv(); err != nil {
		t.Fatalf("prepare: the trigger frame's verdict: %v", err)
	}
	wantErr(st, "prepare", http.StatusInternalServerError)

	hm := openMux()
	st = open(hm, "half-close")
	step(st, "half-close")
	if err := hm.CloseSend(); err != nil {
		t.Fatal(err)
	}
	if _, err := st.Recv(); err != io.EOF {
		t.Fatalf("half-close: %v, want io.EOF done", err)
	}

	fm := openMux()
	st = open(fm, "framing")
	step(st, "framing")
	fm.wmu.Lock()
	_, err := fm.bw.w.Write(appendBinHeader(nil, BinFrame, st.sid, maxRecordBytes+1))
	fm.wmu.Unlock()
	if err != nil {
		t.Fatal(err)
	}
	wantErr(st, "framing", http.StatusBadRequest)

	wantSessionEnds(t, srv, app, map[string]string{
		"close":      "eof",
		"half-close": "eof",
		"flood":      "error: queue full",
		"bad-record": "error: bad record",
		"framing":    "error: connection failure",
		"push":       "error: push",
		"prepare":    "error: prepare",
	})
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

// TestMuxFailedSessionsLeaveConnection pins that a session whose push
// fails leaves its connection's reader: 200 sessions fail one after
// another on one open connection, and the live heap must not keep their
// muxInDepth-frame queues (~20 KB each) until the connection ends. The
// last failed sid can then be opened again.
func TestMuxFailedSessionsLeaveConnection(t *testing.T) {
	srv, err := NewServer(Config{Detectors: map[string]safemon.Detector{"push": &panicDetector{}}})
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
	var boom safemon.Frame
	boom[0] = panicTrigger
	fail := func() {
		t.Helper()
		st, err := m.Open(ctx, "push", "", nil)
		if err != nil {
			t.Fatal(err)
		}
		if err := st.Send(&boom); err != nil {
			t.Fatal(err)
		}
		if _, err := st.Recv(); !isHTTPError(err, http.StatusInternalServerError) {
			t.Fatalf("push: %v, want a 500 error record", err)
		}
	}
	liveHeap := func() int64 {
		waitReleased(t, srv)
		runtime.GC()
		var ms runtime.MemStats
		runtime.ReadMemStats(&ms)
		return int64(ms.HeapAlloc)
	}

	fail() // the first session may build lazily shared state
	before := liveHeap()
	const sessions = 200
	for i := 0; i < sessions; i++ {
		fail()
	}
	// 2 KiB per session absorbs runtime noise.
	if per := (liveHeap() - before) / sessions; per >= 2<<10 {
		t.Errorf("live heap grew %d bytes per failed session on one open connection", per)
	}

	m.mu.Lock()
	m.nextSID-- // the next Open reuses the last failed sid
	m.mu.Unlock()
	st, err := m.Open(ctx, "push", "", nil)
	if err != nil {
		t.Fatalf("reopening a failed sid: %v", err)
	}
	var frame safemon.Frame
	if err := st.Send(&frame); err != nil {
		t.Fatal(err)
	}
	if _, err := st.Recv(); err != nil {
		t.Fatalf("reopened sid: %v", err)
	}
}
