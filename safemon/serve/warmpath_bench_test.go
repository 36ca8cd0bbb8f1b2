package serve

// Warm-path gates for the production frame path. BenchmarkServeStreamWarm
// times the pump's step — session push, ledger emit, guard step, verdict
// encode and the stage-histogram and slow-ring telemetry — behind a
// binary record decode, with the HTTP transport replaced by in-memory
// readers so the measurement is the server's own work. It stays at pump
// level, one admitted stream fed forever, so every op is a warm frame
// and none pays per-stream admission. scripts/benchguard.sh runs each
// repeat for 100ms and holds it to 0 allocs/op and a median ns/op
// budget. TestServeWarmPathZeroAlloc pins the zero-allocation contract
// on the whole /v1/stream handler, admission to done record.

import (
	"bytes"
	"context"
	"errors"
	"io"
	"net/http"
	"net/http/httptest"
	"runtime"
	"testing"
	"time"

	"repro/safemon"
	"repro/safemon/guard"
	"repro/safemon/ledger"
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
// policy; ledgered records into an in-memory event ledger.
func newWarmServer(tb testing.TB, ledgered bool) *Server {
	tb.Helper()
	cfg := Config{
		Detectors: map[string]safemon.Detector{"envelope": fittedDetector(tb, "envelope")},
		Policies:  []guard.Policy{testGuardPolicy()},
	}
	if ledgered {
		app := ledger.NewAppender(ledger.NewMemoryStore(0), ledger.Options{})
		tb.Cleanup(func() { app.Close() })
		cfg.Ledger = app
	}
	srv, err := NewServer(cfg)
	if err != nil {
		tb.Fatal(err)
	}
	tb.Cleanup(srv.Shutdown)
	return srv
}

// warmFrames encodes n binary frame records of one in-envelope frame, so
// a guarded stream steps its engine without transitioning.
func warmFrames(tb testing.TB, n int) []byte {
	tb.Helper()
	safe := testFold(tb).Train[0].Frames[10]
	var buf bytes.Buffer
	bw := newBinWriter(&buf)
	for i := 0; i < n; i++ {
		if err := bw.writeFrame(0, &safe); err != nil {
			tb.Fatal(err)
		}
	}
	return buf.Bytes()
}

// warmStream is one admitted binary stream's pump, fed the same frame
// record forever.
type warmStream struct {
	p    *pump
	conn *binStream
	msg  ClientMsg
}

// newWarmStream admits one binary stream through the server's own
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
	ws := &warmStream{p: p, conn: newBinStream(&repeatReader{data: warmFrames(tb, 1)}, io.Discard, func() {})}
	tb.Cleanup(func() {
		p.close()
		ws.conn.release()
	})
	if em := p.open(nil, "binary", ws.conn); em != nil {
		tb.Fatal(em)
	}
	return ws
}

// step decodes the next frame record and hands it to the pump, as
// handleStream's loop does.
func (ws *warmStream) step(ctx context.Context) error {
	if err := ws.conn.next(&ws.msg); err != nil {
		return err
	}
	if !ws.p.step(ctx, (*safemon.Frame)(ws.msg.Frame), ws.conn.decodeNS()) {
		return errors.New("push failed")
	}
	return nil
}

// BenchmarkServeStreamWarm is the production warm path, gated by
// scripts/benchguard.sh at 0 allocs/op.
func BenchmarkServeStreamWarm(b *testing.B) {
	for _, bc := range []struct {
		name              string
		guarded, ledgered bool
	}{
		{"binary", false, false},
		{"binary-guarded", true, false},
		{"binary-ledgered", false, true},
	} {
		b.Run(bc.name, func(b *testing.B) {
			ws := newWarmStream(b, bc.guarded, bc.ledgered)
			ctx := context.Background()
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if err := ws.step(ctx); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// memResponse is an in-memory http.ResponseWriter that also supports
// the full-duplex and read-deadline controls handleStream asks of its
// connection through http.ResponseController.
type memResponse struct {
	header http.Header
	code   int
	body   bytes.Buffer
}

func (w *memResponse) Header() http.Header             { return w.header }
func (w *memResponse) Write(p []byte) (int, error)     { return w.body.Write(p) }
func (w *memResponse) WriteHeader(code int)            { w.code = code }
func (w *memResponse) Flush()                          {}
func (w *memResponse) SetReadDeadline(time.Time) error { return nil }
func (w *memResponse) EnableFullDuplex() error         { return nil }

// TestServeWarmPathZeroAlloc pins the zero-allocation contract on the
// real /v1/stream handler: a guarded, ledgered binary stream driven
// in-process through Server.Handler. Admission and teardown allocate a
// fixed amount per stream, so the per-frame cost is the malloc
// difference between a 2000-frame and a 1000-frame stream. The race
// detector's instrumentation allocates, so the measurement only runs
// without it.
func TestServeWarmPathZeroAlloc(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation measurement is meaningless under -race")
	}
	h := newWarmServer(t, true).Handler()
	target := "/v1/stream?backend=envelope&policy=" + testGuardPolicy().Name
	stream := func(frames int) uint64 {
		t.Helper()
		req := httptest.NewRequest(http.MethodPost, target, bytes.NewReader(warmFrames(t, frames)))
		req.Header.Set("Content-Type", BinaryContentType)
		w := &memResponse{header: http.Header{}}
		w.body.Grow((frames + 1) * (binHeaderSize + binVerdictPayload))
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		h.ServeHTTP(w, req)
		runtime.ReadMemStats(&after)

		if w.code != http.StatusOK {
			t.Fatalf("status %d: %s", w.code, w.body.String())
		}
		br := newBinReader(&w.body)
		defer br.release()
		for i := 0; ; i++ {
			rec, err := br.next()
			if err != nil {
				t.Fatalf("record %d: %v", i, err)
			}
			if rec.Type == BinVerdict {
				continue
			}
			if rec.Type != BinDone || i != frames || rec.Frames != uint64(frames) {
				t.Fatalf("record %d: %s (frames %d), want done after %d verdicts", i, binTypeName(rec.Type), rec.Frames, frames)
			}
			break
		}
		return after.Mallocs - before.Mallocs
	}
	// Warm every pooled buffer, the stage histograms and the slow ring's
	// admission path.
	stream(100)
	m1000, m2000 := stream(1000), stream(2000)
	perFrame := (float64(m2000) - float64(m1000)) / 1000
	t.Logf("%.4f allocs/frame", perFrame)
	if perFrame >= 0.1 {
		t.Errorf("/v1/stream handler allocates %.3f allocs/frame (%d mallocs for 1000 frames, %d for 2000), want 0",
			perFrame, m1000, m2000)
	}
}
