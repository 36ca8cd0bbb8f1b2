package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"io"
	"math"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/dataset"
	"repro/internal/gesture"
	"repro/internal/synth"
	"repro/safemon"
)

// testFold lazily builds one small labeled Suturing fold shared by every
// test in the package.
var foldFixture struct {
	once sync.Once
	fold dataset.LOSOSplit
	err  error
}

func testFold(t testing.TB) dataset.LOSOSplit {
	t.Helper()
	foldFixture.once.Do(func() {
		demos, err := synth.Generate(synth.Config{
			Task: gesture.Suturing, Hz: 30, Seed: 29,
			NumDemos: 8, NumTrials: 2, Subjects: 2, DurationScale: 0.35,
		})
		if err != nil {
			foldFixture.err = err
			return
		}
		foldFixture.fold = dataset.LOSO(synth.Trajectories(demos))[0]
	})
	if foldFixture.err != nil {
		t.Fatal(foldFixture.err)
	}
	return foldFixture.fold
}

// quickOptions keeps per-backend fits fast while exercising the real
// training paths (mirrors the safemon package's test options).
func quickOptions(backend string) []safemon.Option {
	switch backend {
	case "context-aware", "lookahead", "monolithic":
		return []safemon.Option{safemon.WithEpochs(2), safemon.WithTrainStride(6), safemon.WithSeed(3)}
	case "cascade":
		return []safemon.Option{safemon.WithEpochs(2), safemon.WithTrainStride(6), safemon.WithSeed(3)}
	case "sdsdl":
		return []safemon.Option{safemon.WithThreshold(0.2), safemon.WithAtoms(16), safemon.WithSeed(3)}
	default: // envelope, skipchain
		return []safemon.Option{safemon.WithThreshold(0.2), safemon.WithSeed(3)}
	}
}

var fittedFixture struct {
	mu sync.Mutex
	m  map[string]safemon.Detector
}

func fittedDetector(t testing.TB, backend string) safemon.Detector {
	t.Helper()
	fold := testFold(t)
	fittedFixture.mu.Lock()
	defer fittedFixture.mu.Unlock()
	if d, ok := fittedFixture.m[backend]; ok {
		return d
	}
	det, err := safemon.Open(backend, quickOptions(backend)...)
	if err != nil {
		t.Fatal(err)
	}
	if err := det.Fit(context.Background(), fold.Train); err != nil {
		t.Fatalf("fit %s: %v", backend, err)
	}
	if fittedFixture.m == nil {
		fittedFixture.m = map[string]safemon.Detector{}
	}
	fittedFixture.m[backend] = det
	return det
}

// newTestService stands up a Server over the given detectors behind
// httptest and returns a client against it. Cleanup drains everything.
func newTestService(t *testing.T, detectors map[string]safemon.Detector, cfg ManagerConfig) (*Server, *Client) {
	t.Helper()
	srv, err := NewServer(Config{Detectors: detectors, Manager: cfg})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(func() {
		ts.Close()
		srv.Shutdown()
	})
	return srv, &Client{BaseURL: ts.URL, HTTPClient: ts.Client()}
}

// waitReleased waits up to 5 s for every stream's handler to release its
// session slot, as /metrics counts them. A client sees its done record
// before the handler's deferred cleanup (ledger end record, then
// release) has run.
func waitReleased(t *testing.T, srv *Server) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for {
		active := serverMetrics(t, srv).activeSessions()
		if active == 0 {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("sessions never released: %v still active", active)
		}
		time.Sleep(time.Millisecond)
	}
}

func TestBackendsAndHealthEndpoints(t *testing.T) {
	det := fittedDetector(t, "envelope")
	srv, client := newTestService(t, map[string]safemon.Detector{"envelope": det}, ManagerConfig{})
	ctx := context.Background()

	names, err := client.Backends(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if len(names) != 1 || names[0] != "envelope" {
		t.Fatalf("backends = %v", names)
	}

	resp, err := client.httpClient().Get(client.BaseURL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("healthz = %d", resp.StatusCode)
	}

	// Read-only listings answer 405 to anything but GET, and the
	// removed /stats endpoint is not served.
	for _, c := range []struct {
		method, path string
		want         int
	}{
		{http.MethodPost, "/v1/backends", http.StatusMethodNotAllowed},
		{http.MethodPut, "/v1/backends", http.StatusMethodNotAllowed},
		{http.MethodPost, "/v1/policies", http.StatusMethodNotAllowed},
		{http.MethodDelete, "/v1/policies", http.StatusMethodNotAllowed},
		{http.MethodGet, "/stats", http.StatusNotFound},
	} {
		req, err := http.NewRequest(c.method, client.BaseURL+c.path, nil)
		if err != nil {
			t.Fatal(err)
		}
		resp, err := client.httpClient().Do(req)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != c.want {
			t.Errorf("%s %s = %d, want %d", c.method, c.path, resp.StatusCode, c.want)
		}
	}

	// /v1/stream speaks NDJSON only: a binary request is refused before
	// admission (the session counts below stay 1 / 1), and the answer
	// points at /v1/mux.
	req, err := http.NewRequest(http.MethodPost, client.BaseURL+"/v1/stream?backend=envelope", nil)
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("Content-Type", BinaryContentType)
	if resp, err = client.httpClient().Do(req); err != nil {
		t.Fatal(err)
	}
	em := statusError(resp)
	resp.Body.Close()
	if em.Code != http.StatusUnsupportedMediaType || !strings.Contains(em.Message, "/v1/mux") {
		t.Errorf("binary POST /v1/stream = %v, want a 415 naming /v1/mux", em)
	}

	// A served trajectory shows up in the frame, session and infer-stage
	// families.
	traj := testFold(t).Test[0]
	if _, err := client.StreamTrajectory(ctx, "envelope", traj); err != nil {
		t.Fatal(err)
	}
	waitReleased(t, srv)
	scrape := scrapeMetrics(t, client.httpClient(), client.BaseURL+"/metrics")
	if got := scrape.get(t, "safemon_frames_total"); got != float64(traj.Len()) {
		t.Errorf("frames = %v, want %d", got, traj.Len())
	}
	const infer = `{backend="envelope",codec="json",stage="infer"}`
	if got := scrape.get(t, "safemon_frame_stage_seconds_count"+infer); got != float64(traj.Len()) {
		t.Errorf("infer-stage observations = %v, want %d", got, traj.Len())
	}
	if got := scrape.get(t, "safemon_frame_stage_seconds_sum"+infer); got <= 0 {
		t.Errorf("infer-stage sum = %v, want > 0", got)
	}
	if opened, closed := scrape.get(t, "safemon_sessions_opened_total"), scrape.get(t, "safemon_sessions_closed_total"); opened != 1 || closed != 1 {
		t.Errorf("sessions = %v opened / %v closed, want 1 / 1", opened, closed)
	}

	// Unknown backend is an HTTP 404 before any stream bytes flow.
	if _, err := client.Open(ctx, "no-such-backend", nil); err == nil {
		t.Error("unknown backend should fail")
	} else {
		var em *ErrorMsg
		if !errors.As(err, &em) || em.Code != http.StatusNotFound {
			t.Errorf("unknown backend error = %v", err)
		}
	}

	// After Shutdown the service reports draining and refuses streams.
	srv.Shutdown()
	resp, err = client.httpClient().Get(client.BaseURL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Errorf("draining healthz = %d", resp.StatusCode)
	}
	if _, err := client.Open(ctx, "envelope", nil); err == nil {
		t.Error("draining service should refuse streams")
	} else {
		var em *ErrorMsg
		if !errors.As(err, &em) || em.Code != http.StatusServiceUnavailable {
			t.Errorf("draining error = %v", err)
		}
	}
}

func TestSessionCapReturns429(t *testing.T) {
	det := fittedDetector(t, "envelope")
	_, client := newTestService(t, map[string]safemon.Detector{"envelope": det}, ManagerConfig{MaxSessions: 1})
	ctx := context.Background()

	st, err := client.Open(ctx, "envelope", nil)
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	// Push one frame so the slot is held by an admitted stream.
	traj := testFold(t).Test[0]
	if err := st.Send(&traj.Frames[0]); err != nil {
		t.Fatal(err)
	}
	if _, err := st.Recv(); err != nil {
		t.Fatal(err)
	}

	if _, err := client.Open(ctx, "envelope", nil); err == nil {
		t.Fatal("second stream should hit the session cap")
	} else {
		var em *ErrorMsg
		if !errors.As(err, &em) || em.Code != http.StatusTooManyRequests {
			t.Fatalf("cap error = %v, want HTTP 429", err)
		}
	}

	// Releasing the first stream frees the slot.
	st.Close()
	deadline := time.Now().Add(2 * time.Second)
	for {
		st2, err := client.Open(ctx, "envelope", nil)
		if err == nil {
			st2.Close()
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("slot never freed: %v", err)
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// sendRecord writes msg on st's request body through encoding/json, for
// records Stream.Send cannot spell.
func sendRecord(st *Stream, msg ClientMsg) error {
	return json.NewEncoder(st.body).Encode(msg)
}

func TestStreamBadFrameLength(t *testing.T) {
	det := fittedDetector(t, "envelope")
	_, client := newTestService(t, map[string]safemon.Detector{"envelope": det}, ManagerConfig{})
	st, err := client.Open(context.Background(), "envelope", nil)
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	if err := sendRecord(st, ClientMsg{Frame: []float64{1, 2, 3}}); err != nil {
		t.Fatal(err)
	}
	_, err = st.Recv()
	var em *ErrorMsg
	if !errors.As(err, &em) || em.Code != http.StatusBadRequest {
		t.Fatalf("short frame error = %v, want code 400", err)
	}
}

// TestStreamRecordSizeCap pins the per-record buffering bound: one
// oversized NDJSON line must terminate the stream with a 400 record, not
// buffer without limit.
func TestStreamRecordSizeCap(t *testing.T) {
	det := fittedDetector(t, "envelope")
	_, client := newTestService(t, map[string]safemon.Detector{"envelope": det}, ManagerConfig{})
	st, err := client.Open(context.Background(), "envelope", nil)
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()

	huge := make([]float64, 1<<18) // ~2.8 MB encoded, past the 1 MB cap
	if err := sendRecord(st, ClientMsg{Frame: huge}); err != nil {
		t.Fatal(err)
	}
	_, err = st.Recv()
	var em *ErrorMsg
	if !errors.As(err, &em) || em.Code != http.StatusBadRequest {
		t.Fatalf("oversized record error = %v, want code 400", err)
	}
}

// TestStreamCombinedFirstRecordRejected pins the NDJSON header contract:
// labels ride only in the first record, on their own. A first
// record with labels and a frame, or any later record with labels, must
// end the stream with a 400 that says so — not a frame-length error, and
// not silently dropped labels.
func TestStreamCombinedFirstRecordRejected(t *testing.T) {
	det := fittedDetector(t, "envelope")
	_, client := newTestService(t, map[string]safemon.Detector{"envelope": det}, ManagerConfig{})
	frame := testFold(t).Test[0].Frames[0]
	labels := []int{1, 2}
	jsonRecord := func(msg ClientMsg) func(*Stream) error {
		return func(st *Stream) error { return sendRecord(st, msg) }
	}
	const late = "labels after the first record"
	cases := []struct {
		name   string
		header []int               // labels sent at Open
		frames int                 // frames served before the bad record
		send   func(*Stream) error // writes the bad record
		want   string              // in the 400 message
	}{
		{"json/first-labels-and-frame", nil, 0, jsonRecord(ClientMsg{Labels: labels, Frame: frame[:]}), "labels and frame in one record"},
		{"json/second-header", labels, 0, jsonRecord(ClientMsg{Labels: labels}), late},
		{"json/mid-stream-labels", nil, 2, jsonRecord(ClientMsg{Labels: labels}), late},
		{"json/mid-stream-labels-and-frame", nil, 2, jsonRecord(ClientMsg{Labels: labels, Frame: frame[:]}), late},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			st, err := client.Open(context.Background(), "envelope", tc.header)
			if err != nil {
				t.Fatal(err)
			}
			defer st.Close()
			for i := 0; i < tc.frames; i++ {
				if err := st.Send(&frame); err != nil {
					t.Fatal(err)
				}
				if _, err := st.Recv(); err != nil {
					t.Fatalf("frame %d: %v", i, err)
				}
			}
			if err := tc.send(st); err != nil {
				t.Fatal(err)
			}
			_, err = st.Recv()
			var em *ErrorMsg
			if !errors.As(err, &em) || em.Code != http.StatusBadRequest || !strings.Contains(em.Message, tc.want) {
				t.Fatalf("bad record answered %v, want a 400 saying %q", err, tc.want)
			}
		})
	}
}

// TestStreamSessionEndReasons pins the ledger end reason of every way an
// admitted /v1/stream session ends. Each case streams on a backend of its
// own, so its session-end event names the case.
func TestStreamSessionEndReasons(t *testing.T) {
	srv, client, app := newLedgeredService(t, map[string]safemon.Detector{
		"eof":          &stubDetector{},
		"bad-record":   &stubDetector{},
		"late-labels":  &stubDetector{},
		"bad-frame":    &stubDetector{},
		"push":         &panicDetector{},
		"prepare":      &panicDetector{},
		"no-wire-form": &stubDetector{score: math.NaN()},
	})
	open := func(backend string) *Stream {
		t.Helper()
		st, err := client.Open(context.Background(), backend, nil)
		if err != nil {
			t.Fatalf("%s: open: %v", backend, err)
		}
		t.Cleanup(func() { st.Close() })
		return st
	}
	send := func(st *Stream, backend string, f *safemon.Frame) {
		t.Helper()
		if err := st.Send(f); err != nil {
			t.Fatalf("%s: send: %v", backend, err)
		}
	}
	step := func(st *Stream, backend string, f *safemon.Frame) {
		t.Helper()
		send(st, backend, f)
		if _, err := st.Recv(); err != nil {
			t.Fatalf("%s: recv: %v", backend, err)
		}
	}
	wantErr := func(st *Stream, backend string, code int) {
		t.Helper()
		if _, err := st.Recv(); !isHTTPError(err, code) {
			t.Fatalf("%s: %v, want a %d error record", backend, err, code)
		}
	}
	var frame safemon.Frame

	st := open("eof")
	step(st, "eof", &frame)
	if err := st.CloseSend(); err != nil {
		t.Fatal(err)
	}
	if _, err := st.Recv(); err != io.EOF {
		t.Fatalf("eof: %v, want io.EOF done", err)
	}

	st = open("bad-record")
	step(st, "bad-record", &frame)
	if _, err := io.WriteString(st.body, "{\n"); err != nil {
		t.Fatal(err)
	}
	wantErr(st, "bad-record", http.StatusBadRequest)

	st = open("late-labels")
	step(st, "late-labels", &frame)
	if err := sendRecord(st, ClientMsg{Labels: []int{1}}); err != nil {
		t.Fatal(err)
	}
	wantErr(st, "late-labels", http.StatusBadRequest)

	// A frame record opens the session, so a first record of the wrong
	// length ends an admitted stream.
	st = open("bad-frame")
	if err := sendRecord(st, ClientMsg{Frame: []float64{1, 2, 3}}); err != nil {
		t.Fatal(err)
	}
	wantErr(st, "bad-frame", http.StatusBadRequest)

	st = open("push")
	boom := frame
	boom[0] = panicTrigger
	send(st, "push", &boom)
	wantErr(st, "push", http.StatusInternalServerError)

	st = open("prepare")
	trigger := frame
	trigger[0] = prepareTrigger
	step(st, "prepare", &trigger) // the trigger frame's verdict goes out first
	wantErr(st, "prepare", http.StatusInternalServerError)

	st = open("no-wire-form")
	send(st, "no-wire-form", &frame)
	wantErr(st, "no-wire-form", http.StatusInternalServerError)

	wantSessionEnds(t, srv, app, map[string]string{
		"eof":          "eof",
		"bad-record":   "error: bad record",
		"late-labels":  "error: late labels",
		"bad-frame":    "error: bad frame",
		"push":         "error: push",
		"prepare":      "error: prepare",
		"no-wire-form": "error: score has no wire form",
	})
}

// TestStreamIdleTimeout pins the idle-client bound: a stream that goes
// silent past StreamIdleTimeout is terminated and its session slot freed.
func TestStreamIdleTimeout(t *testing.T) {
	det := fittedDetector(t, "envelope")
	srv, err := NewServer(Config{
		Detectors:         map[string]safemon.Detector{"envelope": det},
		StreamIdleTimeout: 50 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(func() {
		ts.Close()
		srv.Shutdown()
	})
	client := &Client{BaseURL: ts.URL, HTTPClient: ts.Client()}

	st, err := client.Open(context.Background(), "envelope", nil)
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	traj := testFold(t).Test[0]
	if err := st.Send(&traj.Frames[0]); err != nil {
		t.Fatal(err)
	}
	if _, err := st.Recv(); err != nil {
		t.Fatal(err)
	}
	// Go silent; the server must cut the stream and free the slot.
	if _, err := st.Recv(); err == nil {
		t.Fatal("idle stream should be terminated")
	}
	waitReleased(t, srv)
}

// TestBeginDrainKeepsInFlightStreams pins the graceful-drain layering:
// after BeginDrain, new streams are refused with 503 while an
// already-attached stream keeps receiving verdicts until Shutdown.
func TestBeginDrainKeepsInFlightStreams(t *testing.T) {
	det := fittedDetector(t, "envelope")
	srv, client := newTestService(t, map[string]safemon.Detector{"envelope": det}, ManagerConfig{})
	traj := testFold(t).Test[0]
	ctx := context.Background()

	st, err := client.Open(ctx, "envelope", nil)
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	if err := st.Send(&traj.Frames[0]); err != nil {
		t.Fatal(err)
	}
	if _, err := st.Recv(); err != nil {
		t.Fatal(err)
	}

	srv.BeginDrain()
	if _, err := client.Open(ctx, "envelope", nil); err == nil {
		t.Fatal("draining service should refuse new streams")
	} else {
		var em *ErrorMsg
		if !errors.As(err, &em) || em.Code != http.StatusServiceUnavailable {
			t.Fatalf("drain refusal = %v, want HTTP 503", err)
		}
	}
	// The in-flight stream is untouched by BeginDrain.
	for i := 1; i < 10; i++ {
		if err := st.Send(&traj.Frames[i]); err != nil {
			t.Fatalf("in-flight send during drain: %v", err)
		}
		if _, err := st.Recv(); err != nil {
			t.Fatalf("in-flight verdict during drain: %v", err)
		}
	}

	// Shutdown completes the drain; the straggler now fails.
	srv.Shutdown()
	if err := st.Send(&traj.Frames[10]); err == nil {
		if _, err := st.Recv(); err == nil {
			t.Fatal("push should fail once the manager has shut down")
		}
	}
}

// stubDetector is a minimal backend whose sessions take a configurable
// time per push, and per prepare — used to exercise backpressure and the
// drain deterministically. A non-nil gate holds every push until it is
// closed. Every verdict carries score. prepares counts the prepares that
// finished.
type stubDetector struct {
	delay, prepareDelay time.Duration
	gate                chan struct{}
	score               float64
	prepares            atomic.Int32
}

func (d *stubDetector) Info() safemon.Info { return safemon.Info{Name: "stub", Threshold: 0.5} }

func (d *stubDetector) Fit(context.Context, []*safemon.Trajectory) error { return nil }

func (d *stubDetector) Save(io.Writer) error { return errors.New("stub: not serializable") }
func (d *stubDetector) Load(io.Reader) error { return errors.New("stub: not serializable") }

func (d *stubDetector) Run(ctx context.Context, traj *safemon.Trajectory) (*safemon.Trace, error) {
	s, _ := d.NewSession()
	trace := &safemon.Trace{}
	for i := range traj.Frames {
		v, err := s.Push(&traj.Frames[i])
		if err != nil {
			return nil, err
		}
		trace.Verdicts = append(trace.Verdicts, v)
	}
	return trace, nil
}

func (d *stubDetector) NewSession(...safemon.SessionOption) (safemon.Session, error) {
	return &stubSession{delay: d.delay, prepareDelay: d.prepareDelay, gate: d.gate, score: d.score, prepares: &d.prepares}, nil
}

type stubSession struct {
	delay, prepareDelay time.Duration
	gate                chan struct{}
	score               float64
	prepares            *atomic.Int32
	idx                 int
}

func (s *stubSession) Push(*safemon.Frame) (safemon.FrameVerdict, error) {
	if s.gate != nil {
		<-s.gate
	}
	if s.delay > 0 {
		time.Sleep(s.delay)
	}
	v := safemon.FrameVerdict{FrameIndex: s.idx, Score: s.score}
	s.idx++
	return v, nil
}

func (s *stubSession) Prepare() {
	if s.prepareDelay > 0 {
		time.Sleep(s.prepareDelay)
	}
	if s.prepares != nil {
		s.prepares.Add(1)
	}
}

func (s *stubSession) Close() error { return nil }

// TestManagerDrain pins the shutdown contract: Close waits for in-flight
// pushes and prepares, later pushes and opens fail with ErrDraining, and
// a later prepare does nothing.
func TestManagerDrain(t *testing.T) {
	// The prepare outlasts the push, so Close can only wait for it by
	// counting it in flight.
	det := &stubDetector{delay: 50 * time.Millisecond, prepareDelay: 100 * time.Millisecond}
	m, err := NewManager(map[string]safemon.Detector{"stub": det}, ManagerConfig{})
	if err != nil {
		t.Fatal(err)
	}
	open := func() *Session {
		t.Helper()
		if err := m.Reserve(); err != nil {
			t.Fatal(err)
		}
		s, err := m.Open("stub", nil)
		if err != nil {
			t.Fatal(err)
		}
		return s
	}
	s, ps := open(), open()

	var frame safemon.Frame
	pushed, prepared := make(chan error, 1), make(chan error, 1)
	go func() {
		_, err := s.Push(context.Background(), &frame)
		pushed <- err
	}()
	go func() { prepared <- ps.Prepare() }()
	time.Sleep(10 * time.Millisecond) // let the push and the prepare commit
	m.Close()
	if n := det.prepares.Load(); n != 1 {
		t.Errorf("Close returned with %d prepares finished, want the in-flight one", n)
	}
	if err := <-pushed; err != nil {
		t.Errorf("in-flight push during drain: %v", err)
	}
	if err := <-prepared; err != nil {
		t.Errorf("in-flight prepare during drain: %v", err)
	}
	if _, err := s.Push(context.Background(), &frame); !errors.Is(err, ErrDraining) {
		t.Errorf("push after drain = %v, want ErrDraining", err)
	}
	if err := ps.Prepare(); err != nil || det.prepares.Load() != 1 {
		t.Errorf("prepare after drain = %v with %d prepares, want nil and no call", err, det.prepares.Load())
	}
	s.Release(true)
	ps.Release(true)
	if err := m.Reserve(); !errors.Is(err, ErrDraining) {
		t.Errorf("reserve after drain = %v, want ErrDraining", err)
	}
}

// TestManagerSessionCycles pins the per-stream session lifecycle's memory
// behaviour: Reserve, Open, one context-aware trajectory and Release,
// repeated, must not grow the live heap (Release closes the session and
// the manager keeps nothing of it) and must not leak goroutines. make race
// runs it under the race detector.
func TestManagerSessionCycles(t *testing.T) {
	traj := testFold(t).Test[0]
	m, err := NewManager(map[string]safemon.Detector{"context-aware": fittedDetector(t, "context-aware")},
		ManagerConfig{})
	if err != nil {
		t.Fatal(err)
	}
	defer m.Close()
	ctx := context.Background()
	cycle := func() {
		if err := m.Reserve(); err != nil {
			t.Fatal(err)
		}
		s, err := m.Open("context-aware", traj.Gestures)
		if err != nil {
			m.Unreserve()
			t.Fatal(err)
		}
		for i := range traj.Frames {
			if _, err := s.Push(ctx, &traj.Frames[i]); err != nil {
				t.Fatal(err)
			}
		}
		s.Release(true)
	}

	cycle() // the first cycle may build lazily shared model state
	goroutinesBefore := runtime.NumGoroutine()
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	const cycles = 50
	for i := 0; i < cycles; i++ {
		cycle()
	}
	runtime.GC()
	runtime.ReadMemStats(&after)

	// One context-aware session holds ~47 KB of windows and scratch, so a
	// session kept alive per cycle would grow the heap by ~2.3 MB; 256 KiB
	// absorbs runtime noise.
	if grew := int64(after.HeapAlloc) - int64(before.HeapAlloc); grew >= 256<<10 {
		t.Errorf("live heap grew %d bytes across %d open/release cycles", grew, cycles)
	}
	deadline := time.Now().Add(2 * time.Second)
	for runtime.NumGoroutine() > goroutinesBefore && time.Now().Before(deadline) {
		time.Sleep(10 * time.Millisecond)
	}
	if n := runtime.NumGoroutine(); n > goroutinesBefore {
		t.Errorf("goroutines grew from %d to %d across open/release cycles", goroutinesBefore, n)
	}
}

// panicDetector is a stub backend whose sessions panic on any frame whose
// first value is panicTrigger, and in the Prepare after a frame whose
// first value is prepareTrigger, standing in for a model whose arithmetic
// or state broke; it counts the sessions closed on it.
type panicDetector struct {
	stubDetector
	closed atomic.Int32
}

const (
	panicTrigger   = 13
	prepareTrigger = 14
)

func (d *panicDetector) NewSession(...safemon.SessionOption) (safemon.Session, error) {
	return &panicSession{d: d}, nil
}

type panicSession struct {
	stubSession
	d *panicDetector
	// prepPanic makes the next Prepare panic.
	prepPanic bool
}

func (s *panicSession) Push(f *safemon.Frame) (safemon.FrameVerdict, error) {
	if f[0] == panicTrigger {
		panic("stub: broken model state")
	}
	s.prepPanic = f[0] == prepareTrigger
	return s.stubSession.Push(f)
}

func (s *panicSession) Prepare() {
	if s.prepPanic {
		panic("stub: broken prepared state")
	}
}

func (s *panicSession) Close() error { s.d.closed.Add(1); return nil }

// TestSessionPanicIsolated drives a backend that panics mid-stream over
// NDJSON and mux: each stream must end with a 500 record, its
// session must be closed and counted, and the server must go on serving
// healthy streams on every transport, whose sessions close on release
// too.
func TestSessionPanicIsolated(t *testing.T) {
	det := &panicDetector{}
	srv, err := NewServer(Config{Detectors: map[string]safemon.Detector{"stub": det}})
	if err != nil {
		t.Fatal(err)
	}
	ts := newHTTPTestServer(t, srv)
	ctx := context.Background()
	jc := &Client{BaseURL: ts.URL, HTTPClient: ts.Client()}
	mc, err := jc.OpenMux(ctx)
	if err != nil {
		t.Fatal(err)
	}
	defer mc.Close()
	open := map[string]func() (lockstepStream, error){
		"json":       func() (lockstepStream, error) { return jc.Open(ctx, "stub", nil) },
		"binary-mux": func() (lockstepStream, error) { return mc.Open(ctx, "stub", "", nil) },
	}
	var good, bad safemon.Frame
	bad[0] = panicTrigger
	for _, healthy := range []bool{false, true} {
		frames := []safemon.Frame{good, bad}
		if healthy {
			frames[1] = good
		}
		for codec, openStream := range open {
			st, err := openStream()
			if err != nil {
				t.Fatalf("%s: open: %v", codec, err)
			}
			_, err = lockstep(st, frames)
			if err != nil {
				st.CloseSend() // lockstep half-closes only on success
			}
			var em *ErrorMsg
			switch {
			case healthy && err != nil:
				t.Errorf("%s: healthy stream after the panics: %v", codec, err)
			case !healthy && (!errors.As(err, &em) || em.Code != http.StatusInternalServerError ||
				!strings.HasPrefix(em.Message, ErrSessionPanic.Error())):
				t.Errorf("%s: panicking stream = %v, want a 500 %q record", codec, err, ErrSessionPanic)
			}
		}
		waitReleased(t, srv)
		want := int32(2) // one per panicked stream
		if healthy {
			want = 4 // and one per healthy stream
		}
		if got := det.closed.Load(); got != want {
			t.Errorf("sessions closed = %d, want %d (every released session closes)", got, want)
		}
		if got := serverMetrics(t, srv).get(t, "safemon_session_panics_total"); got != 2 {
			t.Errorf("safemon_session_panics_total = %v, want 2", got)
		}
	}
}

// TestPreparePanicIsolated drives a backend whose Prepare panics after a
// trigger frame, over NDJSON and over one /v1/mux connection that carries
// a healthy sid beside the failing one. The failing stream must answer
// the trigger frame's verdict and then end with a 500 record; the panic
// is counted and its session released and closed; and the healthy sid
// keeps streaming before and after it on the same connection.
func TestPreparePanicIsolated(t *testing.T) {
	det := &panicDetector{}
	srv, err := NewServer(Config{Detectors: map[string]safemon.Detector{"stub": det}})
	if err != nil {
		t.Fatal(err)
	}
	ts := newHTTPTestServer(t, srv)
	ctx := context.Background()
	jc := &Client{BaseURL: ts.URL, HTTPClient: ts.Client()}
	mc, err := jc.OpenMux(ctx)
	if err != nil {
		t.Fatal(err)
	}
	defer mc.Close()
	healthy, err := mc.Open(ctx, "stub", "", nil)
	if err != nil {
		t.Fatal(err)
	}
	var good, trigger safemon.Frame
	trigger[0] = prepareTrigger
	frame := 0
	stepHealthy := func() {
		t.Helper()
		if err := healthy.Send(&good); err != nil {
			t.Fatalf("healthy sid: send: %v", err)
		}
		if v, err := healthy.Recv(); err != nil || v.FrameIndex != frame {
			t.Fatalf("healthy sid: frame %d: %+v, %v", frame, v, err)
		}
		frame++
	}
	open := map[string]func() (lockstepStream, error){
		"json":       func() (lockstepStream, error) { return jc.Open(ctx, "stub", nil) },
		"binary-mux": func() (lockstepStream, error) { return mc.Open(ctx, "stub", "", nil) },
	}
	for codec, openStream := range open {
		stepHealthy()
		st, err := openStream()
		if err != nil {
			t.Fatalf("%s: open: %v", codec, err)
		}
		for i, f := range []*safemon.Frame{&good, &trigger} {
			if err := st.Send(f); err != nil {
				t.Fatalf("%s: send %d: %v", codec, i, err)
			}
			if v, err := st.Recv(); err != nil || v.FrameIndex != i {
				t.Fatalf("%s: frame %d: %+v, %v; want its verdict", codec, i, v, err)
			}
		}
		// Half-close first: a stream that did not fail answers done
		// instead of blocking the Recv.
		st.CloseSend()
		var em *ErrorMsg
		if _, err := st.Recv(); !errors.As(err, &em) || em.Code != http.StatusInternalServerError ||
			!strings.HasPrefix(em.Message, ErrSessionPanic.Error()) {
			t.Errorf("%s: after the trigger verdict: %v, want a 500 %q record", codec, err, ErrSessionPanic)
		}
		stepHealthy()
	}
	if got := serverMetrics(t, srv).get(t, "safemon_session_panics_total"); got != 2 {
		t.Errorf("safemon_session_panics_total = %v, want 2", got)
	}
	if _, err := lockstep(healthy, []safemon.Frame{good}); err != nil {
		t.Fatalf("healthy sid after the panics: %v", err)
	}
	waitReleased(t, srv)
	if got := det.closed.Load(); got != 3 {
		t.Errorf("sessions closed = %d, want 3 (two failed streams and the healthy sid)", got)
	}
}

// TestStreamEarlyHangup checks that a client vanishing mid-stream does not
// wedge the handler or leak the session slot.
func TestStreamEarlyHangup(t *testing.T) {
	det := fittedDetector(t, "envelope")
	srv, client := newTestService(t, map[string]safemon.Detector{"envelope": det}, ManagerConfig{})
	traj := testFold(t).Test[0]

	st, err := client.Open(context.Background(), "envelope", nil)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		if err := st.Send(&traj.Frames[i]); err != nil {
			t.Fatal(err)
		}
		if _, err := st.Recv(); err != nil {
			t.Fatal(err)
		}
	}
	st.Close() // abrupt: no CloseSend handshake

	waitReleased(t, srv)
}

// overflowFrame is a finite frame whose envelope excess overflows
// float64: every value is 1e308, far beyond any fitted range.
func overflowFrame() safemon.Frame {
	var f safemon.Frame
	for i := range f {
		f[i] = 1e308
	}
	return f
}

// TestStreamOverflowingFrame sends the envelope a safe, an overflowing and
// a safe frame over a lockstep /v1/stream: each Recv must answer its own
// frame, and the overflowing one must be unsafe with a score that JSON
// carries.
func TestStreamOverflowingFrame(t *testing.T) {
	det := fittedDetector(t, "envelope")
	_, client := newTestService(t, map[string]safemon.Detector{"envelope": det}, ManagerConfig{})
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	safe, _ := guardProbeFrames(t)
	huge := overflowFrame()
	st, err := client.Open(ctx, "envelope", nil)
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	for i, f := range []*safemon.Frame{&safe, &huge, &safe} {
		if err := st.Send(f); err != nil {
			t.Fatalf("send %d: %v", i, err)
		}
		v, err := st.Recv()
		if err != nil {
			t.Fatalf("recv %d: %v", i, err)
		}
		if v.FrameIndex != i || v.Unsafe != (i == 1) || math.IsInf(v.Score, 0) {
			t.Fatalf("recv %d: %+v, want frame %d with unsafe=%v and a finite score", i, v, i, i == 1)
		}
	}
	if err := st.CloseSend(); err != nil {
		t.Fatal(err)
	}
	if _, err := st.Recv(); err != io.EOF {
		t.Fatalf("expected done, got %v", err)
	}
}

// TestJSONStreamUnencodableScore pins the NDJSON sink's answer to a score
// with no JSON form: a finite verdict goes out as a verdict record, and a
// NaN or ±Inf one ends the stream with a 500 error record naming its
// frame.
func TestJSONStreamUnencodableScore(t *testing.T) {
	for _, score := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
		var out bytes.Buffer
		c := newJSONStream(strings.NewReader(""), &out, func() {})
		if !c.verdict(nil, &VerdictMsg{I: 0, Score: 0.25}) {
			t.Fatal("finite verdict not written")
		}
		if c.verdict(nil, &VerdictMsg{I: 1, Score: score, Unsafe: true}) {
			t.Fatalf("score %v: verdict reported written", score)
		}
		var recs []ServerMsg
		for dec := json.NewDecoder(&out); dec.More(); {
			var m ServerMsg
			if err := dec.Decode(&m); err != nil {
				t.Fatalf("score %v: %v in %q", score, err, out.String())
			}
			recs = append(recs, m)
		}
		if len(recs) != 2 || recs[0].Verdict == nil || recs[0].Verdict.I != 0 ||
			recs[1].Error == nil || recs[1].Error.Code != http.StatusInternalServerError ||
			!strings.Contains(recs[1].Error.Message, "frame 1") {
			t.Fatalf("score %v: records %+v, want the frame 0 verdict then a 500 error naming frame 1", score, recs)
		}
	}
}

// TestWriteJSONUnencodable pins writeJSON's order: a value with no JSON
// form answers 500 with the reason, not a 200 with an empty body.
func TestWriteJSONUnencodable(t *testing.T) {
	w := httptest.NewRecorder()
	writeJSON(w, http.StatusOK, map[string]float64{"peak": math.Inf(1)})
	if w.Code != http.StatusInternalServerError || !strings.Contains(w.Body.String(), "unsupported value") {
		t.Fatalf("writeJSON(+Inf) = %d %q, want a 500 naming the value", w.Code, w.Body.String())
	}
}

func TestWireVerdictRoundTrip(t *testing.T) {
	v := safemon.FrameVerdict{FrameIndex: 7, Gesture: 3, Score: 0.625, Unsafe: true}
	if got := WireVerdict(v).Verdict(); got != v {
		t.Fatalf("round trip %+v -> %+v", v, got)
	}
}

var _ io.Closer = (*Stream)(nil) // Stream is a Closer for callers' defer chains
