package serve

import (
	"context"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
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

	// A served trajectory shows up in every shard-summed /metrics family.
	traj := testFold(t).Test[0]
	if _, err := client.StreamTrajectory(ctx, "envelope", traj); err != nil {
		t.Fatal(err)
	}
	waitReleased(t, srv)
	scrape := scrapeMetrics(t, client.httpClient(), client.BaseURL+"/metrics")
	if got := scrape.sum("safemon_frames_total"); got != float64(traj.Len()) {
		t.Errorf("frames = %v, want %d", got, traj.Len())
	}
	if got := scrape.sum("safemon_frame_latency_seconds_count"); got != float64(traj.Len()) {
		t.Errorf("latency observations = %v, want %d", got, traj.Len())
	}
	if got := scrape.sum("safemon_frame_latency_seconds_sum"); got <= 0 {
		t.Errorf("latency sum = %v, want > 0", got)
	}
	if opened, closed := scrape.sum("safemon_sessions_opened_total"), scrape.sum("safemon_sessions_closed_total"); opened != 1 || closed != 1 {
		t.Errorf("sessions = %v opened / %v closed, want 1 / 1", opened, closed)
	}
	// One series per shard: the default manager runs 8.
	for i := 0; i < 8; i++ {
		scrape.get(t, fmt.Sprintf(`safemon_frames_total{shard="%d"}`, i))
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

func TestStreamBadFrameLength(t *testing.T) {
	det := fittedDetector(t, "envelope")
	_, client := newTestService(t, map[string]safemon.Detector{"envelope": det}, ManagerConfig{})
	st, err := client.Open(context.Background(), "envelope", nil)
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	if err := st.enc.Encode(ClientMsg{Frame: []float64{1, 2, 3}}); err != nil {
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
	if err := st.enc.Encode(ClientMsg{Frame: huge}); err != nil {
		t.Fatal(err)
	}
	_, err = st.Recv()
	var em *ErrorMsg
	if !errors.As(err, &em) || em.Code != http.StatusBadRequest {
		t.Fatalf("oversized record error = %v, want code 400", err)
	}
}

// TestStreamCombinedFirstRecordRejected pins the header contract on both
// codecs: labels ride only in the first record, on their own. A first
// record with labels and a frame, or any later record with labels, must
// end the stream with a 400 that says so — not a frame-length error, and
// not silently dropped labels.
func TestStreamCombinedFirstRecordRejected(t *testing.T) {
	det := fittedDetector(t, "envelope")
	_, client := newTestService(t, map[string]safemon.Detector{"envelope": det}, ManagerConfig{})
	frame := testFold(t).Test[0].Frames[0]
	labels := []int{1, 2}
	jsonRecord := func(msg ClientMsg) func(*Stream) error {
		return func(st *Stream) error { return st.enc.Encode(msg) }
	}
	binLabels := func(st *Stream) error { return st.bw.emit(&BinaryRecord{Type: BinLabels, Labels: labels}) }
	const late = "labels after the first record"
	cases := []struct {
		name   string
		codec  string
		header []int               // labels sent at Open
		frames int                 // frames served before the bad record
		send   func(*Stream) error // writes the bad record
		want   string              // in the 400 message
	}{
		{"json/first-labels-and-frame", "", nil, 0, jsonRecord(ClientMsg{Labels: labels, Frame: frame[:]}), "labels and frame in one record"},
		{"json/second-header", "", labels, 0, jsonRecord(ClientMsg{Labels: labels}), late},
		{"json/mid-stream-labels", "", nil, 2, jsonRecord(ClientMsg{Labels: labels}), late},
		{"json/mid-stream-labels-and-frame", "", nil, 2, jsonRecord(ClientMsg{Labels: labels, Frame: frame[:]}), late},
		{"binary/second-header", "binary", labels, 0, binLabels, late},
		{"binary/mid-stream-labels", "binary", nil, 2, binLabels, late},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			c := *client
			c.Codec = tc.codec
			st, err := c.Open(context.Background(), "envelope", tc.header)
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
// time per push — used to exercise backpressure deterministically.
type stubDetector struct{ delay time.Duration }

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
	return &stubSession{delay: d.delay}, nil
}

type stubSession struct {
	delay time.Duration
	idx   int
}

func (s *stubSession) Push(*safemon.Frame) (safemon.FrameVerdict, error) {
	if s.delay > 0 {
		time.Sleep(s.delay)
	}
	v := safemon.FrameVerdict{FrameIndex: s.idx}
	s.idx++
	return v, nil
}

func (s *stubSession) Reset([]int) error { s.idx = 0; return nil }
func (s *stubSession) Close() error      { return nil }

// TestMailboxBackpressure pins the explicit queue-full contract: with one
// shard, a single-slot mailbox and a slow session, a third concurrent push
// cannot fit (one processing + one queued) and must fail with ErrQueueFull
// within the enqueue timeout instead of buffering.
func TestMailboxBackpressure(t *testing.T) {
	m, err := NewManager(map[string]safemon.Detector{"stub": &stubDetector{delay: 200 * time.Millisecond}},
		ManagerConfig{Shards: 1, MailboxDepth: 1, EnqueueTimeout: 5 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	defer m.Close()

	sessions := make([]*Session, 3)
	for i := range sessions {
		if err := m.Reserve(); err != nil {
			t.Fatal(err)
		}
		s, err := m.Open("stub", nil)
		if err != nil {
			t.Fatal(err)
		}
		sessions[i] = s
		defer s.Release(true)
	}

	var frame safemon.Frame
	errs := make(chan error, len(sessions))
	var wg sync.WaitGroup
	for _, s := range sessions {
		wg.Add(1)
		go func(s *Session) {
			defer wg.Done()
			_, err := s.Push(context.Background(), &frame)
			errs <- err
		}(s)
	}
	wg.Wait()
	close(errs)
	full, ok := 0, 0
	for err := range errs {
		switch {
		case err == nil:
			ok++
		case errors.Is(err, ErrQueueFull):
			full++
		default:
			t.Fatalf("unexpected push error: %v", err)
		}
	}
	if full == 0 {
		t.Fatalf("no push hit backpressure (ok=%d)", ok)
	}
	if ok == 0 {
		t.Fatal("every push failed; expected the committed ones to complete")
	}
	if got := m.shards[0].stats.queueFull.Load(); got != uint64(full) {
		t.Errorf("queueFull stat = %d, want %d", got, full)
	}
}

// TestManagerDrain pins the shutdown contract: Close waits for in-flight
// pushes, and later pushes and opens fail with ErrDraining.
func TestManagerDrain(t *testing.T) {
	m, err := NewManager(map[string]safemon.Detector{"stub": &stubDetector{delay: 50 * time.Millisecond}},
		ManagerConfig{Shards: 2})
	if err != nil {
		t.Fatal(err)
	}
	if err := m.Reserve(); err != nil {
		t.Fatal(err)
	}
	s, err := m.Open("stub", nil)
	if err != nil {
		t.Fatal(err)
	}

	var frame safemon.Frame
	pushed := make(chan error, 1)
	go func() {
		_, err := s.Push(context.Background(), &frame)
		pushed <- err
	}()
	time.Sleep(10 * time.Millisecond) // let the push commit
	m.Close()
	if err := <-pushed; err != nil {
		t.Errorf("in-flight push during drain: %v", err)
	}
	if _, err := s.Push(context.Background(), &frame); !errors.Is(err, ErrDraining) {
		t.Errorf("push after drain = %v, want ErrDraining", err)
	}
	s.Release(true)
	if err := m.Reserve(); !errors.Is(err, ErrDraining) {
		t.Errorf("reserve after drain = %v, want ErrDraining", err)
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

func TestWireVerdictRoundTrip(t *testing.T) {
	v := safemon.FrameVerdict{FrameIndex: 7, Gesture: 3, Score: 0.625, Unsafe: true}
	if got := WireVerdict(v).Verdict(); got != v {
		t.Fatalf("round trip %+v -> %+v", v, got)
	}
	tr := TraceFromVerdicts([]safemon.FrameVerdict{{FrameIndex: 0, Score: 0.1}, v})
	if len(tr.Alerts) != 1 || tr.Alerts[0].FrameIndex != 7 {
		t.Fatalf("alerts = %+v", tr.Alerts)
	}
}

var _ io.Closer = (*Stream)(nil) // Stream is a Closer for callers' defer chains
