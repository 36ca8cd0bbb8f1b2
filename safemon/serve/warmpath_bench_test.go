package serve

// Warm-path gates for the production frame path, on /v1/mux, the binary
// transport the serving workloads run. BenchmarkServeStreamWarm times
// the pump's step — session push (a guarded session steps its policy
// inside it), ledger emit, the mux session's verdict encode and the
// stage-histogram and slow-ring telemetry — behind a binary record
// decode, with the HTTP transport
// replaced by in-memory readers so the measurement is the server's own
// work. It stays at pump level, one admitted session fed forever, so
// every op is a warm frame and none pays per-session admission.
// scripts/benchguard.sh runs each repeat for 100ms and holds it to 0
// allocs/op and a median ns/op budget. TestServeWarmPathZeroAlloc pins
// the zero-allocation contract on the whole /v1/mux handler, from the
// open record to the done record, including the connection reader's
// hand-off to the session goroutine, and TestServeNDJSONZeroAlloc pins
// it on the whole NDJSON /v1/stream handler.

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"io"
	"net/http"
	"net/http/httptest"
	"runtime"
	"testing"
	"time"

	"repro/safemon"
	"repro/safemon/guard"
)

// repeatReader serves the same encoded record bytes forever, so the
// decode side of the warm loop never sees EOF and never reallocates.
type repeatReader struct {
	data []byte
	off  int
}

func (r *repeatReader) Read(p []byte) (int, error) {
	if r.off == len(r.data) {
		r.off = 0
	}
	n := copy(p, r.data[r.off:])
	r.off += n
	return n, nil
}

// newWarmServer stands up an envelope server offering the test guard
// policy; ledgered records into a disk ledger, as safemond does.
func newWarmServer(tb testing.TB, ledgered bool) *Server {
	tb.Helper()
	cfg := Config{
		Detectors: map[string]safemon.Detector{"envelope": fittedDetector(tb, "envelope")},
		Policies:  []guard.Policy{testGuardPolicy()},
	}
	if ledgered {
		cfg.Ledger = newDiskLedger(tb, tb.TempDir())
	}
	srv, err := NewServer(cfg)
	if err != nil {
		tb.Fatal(err)
	}
	tb.Cleanup(srv.Shutdown)
	return srv
}

// warmSID is the logical session id the warm path runs under.
const warmSID = 1

// warmFrame encodes one binary frame record of an in-envelope frame, so
// a guarded session steps its engine without transitioning.
func warmFrame(tb testing.TB) []byte {
	tb.Helper()
	safe := testFold(tb).Train[0].Frames[10]
	var buf bytes.Buffer
	if err := newBinWriter(&buf).writeFrame(warmSID, &safe); err != nil {
		tb.Fatal(err)
	}
	return buf.Bytes()
}

// warmStream is one admitted mux session's pump, fed the same frame
// record forever.
type warmStream struct {
	p *pump
	r *binReader
}

// newWarmStream admits one mux session through the server's own
// admission; guarded attaches the test policy.
func newWarmStream(tb testing.TB, guarded, ledgered bool) *warmStream {
	tb.Helper()
	srv := newWarmServer(tb, ledgered)
	policy := ""
	if guarded {
		policy = testGuardPolicy().Name
	}
	p, em := srv.admit("envelope", policy)
	if em != nil {
		tb.Fatal(em)
	}
	ws := &warmStream{p: p, r: newBinReader(&repeatReader{data: warmFrame(tb)})}
	tb.Cleanup(p.close)
	ms := &muxSession{sid: warmSID, mw: &muxWriter{w: newBinWriter(io.Discard), flush: func() {}}}
	if em := p.open(nil, "binary-mux", ms); em != nil {
		tb.Fatal(em)
	}
	return ws
}

// step decodes the next frame record and hands it to the pump, as the
// mux session goroutine does with each frame the connection reader
// routes to it.
func (ws *warmStream) step(ctx context.Context) error {
	rec, err := ws.r.next()
	if err != nil {
		return err
	}
	if !ws.p.step(ctx, &rec.Frame, ws.r.decNS) {
		return errors.New("push failed")
	}
	return nil
}

// BenchmarkServeStreamWarm is the production warm path, gated by
// scripts/benchguard.sh at 0 allocs/op; the ledgered row also reports
// dropped/op, which benchguard gates at 0.
func BenchmarkServeStreamWarm(b *testing.B) {
	for _, bc := range []struct {
		name              string
		guarded, ledgered bool
	}{
		{"mux", false, false},
		{"mux-guarded", true, false},
		{"mux-ledgered", false, true},
	} {
		b.Run(bc.name, func(b *testing.B) {
			ws := newWarmStream(b, bc.guarded, bc.ledgered)
			app := ws.p.s.cfg.Ledger // nil unless ledgered
			dropped := app.Stats().Dropped
			ctx := context.Background()
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if app != nil && i%1024 == 1023 {
					// Drain the queue off the clock, so every op times
					// the enqueue and none Emit's drop branch.
					b.StopTimer()
					app.Flush()
					b.StartTimer()
				}
				if err := ws.step(ctx); err != nil {
					b.Fatal(err)
				}
			}
			if app != nil {
				b.ReportMetric(float64(app.Stats().Dropped-dropped)/float64(b.N), "dropped/op")
			}
		})
	}
}

// memResponse is an in-memory http.ResponseWriter that also supports
// the full-duplex and read-deadline controls handleMux asks of its
// connection through http.ResponseController. Each Write is one server
// record, and it leaves a token in written (capacity 1) unless one is
// already waiting: a lockstep client consumes each token before the next
// record can be caused, and the send must never block a failing server.
type memResponse struct {
	header  http.Header
	code    int
	body    bytes.Buffer
	written chan struct{}
}

func (w *memResponse) Header() http.Header { return w.header }
func (w *memResponse) Write(p []byte) (int, error) {
	n, err := w.body.Write(p)
	select {
	case w.written <- struct{}{}:
	default:
	}
	return n, err
}
func (w *memResponse) WriteHeader(code int)            { w.code = code }
func (w *memResponse) Flush()                          {}
func (w *memResponse) SetReadDeadline(time.Time) error { return nil }
func (w *memResponse) EnableFullDuplex() error         { return nil }

// lockstepBody is a request body that plays a lockstep client: the open
// record, then each frame record only after the server has written its
// answer to the previous record, then a clean end of the connection. On
// /v1/mux the open record is the sid's open and is answered by opened,
// then one verdict per frame; on /v1/stream it is the first frame. It
// never lets the reader outrun the session, so the per-sid queue never
// fills. A server that leaves a record unanswered past timeout fails the
// connection.
type lockstepBody struct {
	open, frame []byte
	frames      int // frame records still to send
	written     <-chan struct{}
	timeout     <-chan time.Time
	sentOpen    bool
	stalled     bool
}

func (b *lockstepBody) Read(p []byte) (int, error) {
	if !b.sentOpen {
		b.sentOpen = true
		return copy(p, b.open), nil
	}
	select {
	case <-b.written: // the answer to the previous record
	case <-b.timeout:
		b.stalled = true
		return 0, errors.New("no answer from the server")
	}
	if b.frames == 0 {
		return 0, io.EOF
	}
	b.frames--
	return copy(p, b.frame), nil
}

// TestServeWarmPathZeroAlloc pins the zero-allocation contract on the
// real /v1/mux handler: one guarded, ledgered session driven in-process
// through Server.Handler by a lockstep client. Admission and teardown
// allocate a fixed amount per connection, so the per-frame cost is the
// malloc difference between a 2000-frame and a 1000-frame session. The
// race detector's instrumentation allocates, so the measurement only
// runs without it.
func TestServeWarmPathZeroAlloc(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation measurement is meaningless under -race")
	}
	h := newWarmServer(t, true).Handler()
	open, err := AppendBinaryRecord(nil, &BinaryRecord{Type: BinOpen, SID: warmSID,
		Backend: "envelope", Policy: testGuardPolicy().Name})
	if err != nil {
		t.Fatal(err)
	}
	frame := warmFrame(t)
	session := func(frames int) uint64 {
		t.Helper()
		w := &memResponse{header: http.Header{}, written: make(chan struct{}, 1)}
		w.body.Grow(64 + (frames+1)*(binHeaderSize+binVerdictPayload))
		timeout := time.NewTimer(10 * time.Second)
		defer timeout.Stop()
		body := &lockstepBody{open: open, frame: frame, frames: frames, written: w.written, timeout: timeout.C}
		req := httptest.NewRequest(http.MethodPost, "/v1/mux", body)
		req.Header.Set("Content-Type", BinaryContentType)
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		h.ServeHTTP(w, req)
		runtime.ReadMemStats(&after)

		if body.stalled {
			t.Fatalf("server left a record unanswered for 10s with %d of %d frames unsent", body.frames, frames)
		}
		if w.code != http.StatusOK {
			t.Fatalf("status %d: %s", w.code, w.body.String())
		}
		br := newBinReader(&w.body)
		for i := 0; ; i++ {
			rec, err := br.next()
			if err != nil {
				t.Fatalf("record %d: %v", i, err)
			}
			if rec.SID != warmSID {
				t.Fatalf("record %d: %s for sid %d", i, binTypeName(rec.Type), rec.SID)
			}
			switch {
			case i == 0 && rec.Type == BinOpened, i > 0 && rec.Type == BinVerdict:
				continue
			case rec.Type != BinDone || i != frames+1 || rec.Frames != uint64(frames):
				t.Fatalf("record %d: %s (frames %d), want opened, %d verdicts, done", i, binTypeName(rec.Type), rec.Frames, frames)
			}
			break
		}
		return after.Mallocs - before.Mallocs
	}
	// Warm the stage histograms and the slow ring's admission path.
	session(100)
	m1000, m2000 := session(1000), session(2000)
	perFrame := (float64(m2000) - float64(m1000)) / 1000
	t.Logf("%.4f allocs/frame", perFrame)
	if perFrame >= 0.1 {
		t.Errorf("/v1/mux handler allocates %.3f allocs/frame (%d mallocs for 1000 frames, %d for 2000), want 0",
			perFrame, m1000, m2000)
	}
}

// TestServeNDJSONZeroAlloc pins the zero-allocation contract on the real
// NDJSON /v1/stream handler: one guarded, ledgered session driven
// in-process through Server.Handler by a lockstep client whose frame
// records are the client's own appended bytes. As in
// TestServeWarmPathZeroAlloc, the per-frame cost is the malloc
// difference between a 2000-frame and a 1000-frame session, and the
// measurement only runs without the race detector.
func TestServeNDJSONZeroAlloc(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation measurement is meaningless under -race")
	}
	h := newWarmServer(t, true).Handler()
	safe := testFold(t).Train[0].Frames[10]
	frame, err := appendFrameRecord(nil, &safe)
	if err != nil {
		t.Fatal(err)
	}
	verdictLen := len(appendVerdictRecord(nil, &VerdictMsg{I: 1 << 20, Score: 1}))
	session := func(frames int) uint64 {
		t.Helper()
		w := &memResponse{header: http.Header{}, written: make(chan struct{}, 1)}
		w.body.Grow(64 + frames*verdictLen)
		timeout := time.NewTimer(10 * time.Second)
		defer timeout.Stop()
		body := &lockstepBody{open: frame, frame: frame, frames: frames - 1, written: w.written, timeout: timeout.C}
		req := httptest.NewRequest(http.MethodPost, "/v1/stream?backend=envelope&policy="+testGuardPolicy().Name, body)
		req.Header.Set("Content-Type", "application/x-ndjson")
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		h.ServeHTTP(w, req)
		runtime.ReadMemStats(&after)

		if body.stalled {
			t.Fatalf("server left a record unanswered for 10s with %d of %d frames unsent", body.frames, frames)
		}
		if w.code != http.StatusOK {
			t.Fatalf("status %d: %s", w.code, w.body.String())
		}
		dec := json.NewDecoder(&w.body)
		for i := 0; ; i++ {
			var msg ServerMsg
			if err := dec.Decode(&msg); err != nil {
				t.Fatalf("record %d: %v", i, err)
			}
			switch {
			case msg.Verdict != nil && msg.Verdict.I == i:
				continue
			case msg.Done == nil || i != frames || msg.Done.Frames != frames:
				t.Fatalf("record %d: %+v, want %d verdicts, then done", i, msg, frames)
			}
			break
		}
		return after.Mallocs - before.Mallocs
	}
	// Warm every pooled buffer, the stage histograms and the slow ring's
	// admission path.
	session(100)
	m1000, m2000 := session(1000), session(2000)
	perFrame := (float64(m2000) - float64(m1000)) / 1000
	t.Logf("%.4f allocs/frame", perFrame)
	if perFrame >= 0.1 {
		t.Errorf("/v1/stream handler allocates %.3f allocs/frame (%d mallocs for 1000 frames, %d for 2000), want 0",
			perFrame, m1000, m2000)
	}
}
