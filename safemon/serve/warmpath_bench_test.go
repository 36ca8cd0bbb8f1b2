package serve

// Warm-path benchmarks for the instrumented frame loop: the exact
// per-frame work handleStream does after admission — binary record
// decode, session push through the sharded manager, ledger emit, guard
// step, verdict encode — including the full stage-histogram and
// slow-ring telemetry, with the HTTP transport replaced by in-memory
// readers so the measurement is the server's own work.
// scripts/benchguard.sh holds BenchmarkServeStreamWarm to 0 allocs/op:
// the telemetry must ride the zero-allocation contract, not erode it.

import (
	"bytes"
	"context"
	"io"
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

// warmStream is one admitted binary stream's warm-path state, built the
// same way handleStream builds it.
type warmStream struct {
	srv  *Server
	sess *Session
	tr   *streamTrace
	sg   *streamGuard
	rec  *ledger.Recorder
	conn *binStream
	// frame is hoisted like handleStream's loop frame: its pointer rides
	// the shard mailbox, so a per-step variable would escape and allocate.
	frame safemon.Frame
}

// newWarmStream stands up a server and admits one binary stream against
// it. guarded attaches the test policy (fed safe frames, so the engine
// steps without transitioning); ledgered records into an in-memory
// event ledger.
func newWarmStream(tb testing.TB, guarded, ledgered bool) *warmStream {
	tb.Helper()
	det := fittedDetector(tb, "envelope")
	cfg := Config{Detectors: map[string]safemon.Detector{"envelope": det}}
	policyName := ""
	if guarded {
		cfg.Policies = []guard.Policy{testGuardPolicy()}
		policyName = testGuardPolicy().Name
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

	if err := srv.manager.Reserve(); err != nil {
		tb.Fatal(err)
	}
	sess, err := srv.manager.Open("envelope", nil)
	if err != nil {
		srv.manager.Unreserve()
		tb.Fatal(err)
	}
	tb.Cleanup(func() { sess.Release(true) })

	ws := &warmStream{srv: srv, sess: sess}
	if guarded {
		ws.sg, err = newStreamGuard(testGuardPolicy(), &srv.mitigation)
		if err != nil {
			tb.Fatal(err)
		}
	}
	ws.rec = ledger.NewRecorder(cfg.Ledger, "envelope", sess.Version(), policyName)
	ws.rec.Start(nil)
	tb.Cleanup(func() { ws.rec.End(0, "eof") })
	ws.tr = srv.metrics.streamTrace("envelope", "binary", sess.Version(), policyName, ledgered)

	// One in-envelope frame, encoded once and replayed forever.
	safe := testFold(tb).Train[0].Frames[10]
	var buf bytes.Buffer
	bw := newBinWriter(&buf)
	if err := bw.writeFrame(0, &safe); err != nil {
		tb.Fatal(err)
	}
	ws.conn = newBinStream(&repeatReader{data: buf.Bytes()}, io.Discard, func() {})
	tb.Cleanup(ws.conn.release)
	return ws
}

// step runs one frame through the instrumented warm path — the body of
// handleStream's loop.
func (ws *warmStream) step(ctx context.Context, frameIdx int) error {
	var msg ClientMsg
	if err := ws.conn.next(&msg); err != nil {
		return err
	}
	copy(ws.frame[:], msg.Frame)
	ws.tr.setStage(stageDecode, ws.conn.decodeNS())
	v, err := ws.sess.Push(ctx, &ws.frame)
	if err != nil {
		return err
	}
	ws.tr.setStage(stageQueue, ws.sess.trace.queueNS)
	ws.tr.setStage(stageInfer, ws.sess.trace.inferNS)
	wire := WireVerdict(v)
	t0 := time.Now()
	ws.rec.Verdict(v, &ws.frame)
	t1 := time.Now()
	t2 := t1
	if ws.sg != nil {
		if act := ws.sg.step(wire); act != nil {
			ws.rec.Action(ws.sg.decision())
			ws.conn.action(act)
		}
		t2 = time.Now()
	}
	ws.conn.verdict(&wire)
	end := time.Now()
	ws.tr.setStage(stageLedger, t1.Sub(t0).Nanoseconds())
	ws.tr.setStage(stageGuard, t2.Sub(t1).Nanoseconds())
	ws.tr.setStage(stageEncode, end.Sub(t2).Nanoseconds())
	ws.tr.observe(frameIdx, end.UnixNano())
	return nil
}

// stepBare is the same frame path with every telemetry touch removed:
// the uninstrumented baseline BENCH_PR10.json's overhead row is the
// delta against.
func (ws *warmStream) stepBare(ctx context.Context) error {
	var msg ClientMsg
	if err := ws.conn.next(&msg); err != nil {
		return err
	}
	copy(ws.frame[:], msg.Frame)
	v, err := ws.sess.Push(ctx, &ws.frame)
	if err != nil {
		return err
	}
	wire := WireVerdict(v)
	ws.rec.Verdict(v, &ws.frame)
	if ws.sg != nil {
		if act := ws.sg.step(wire); act != nil {
			ws.rec.Action(ws.sg.decision())
			ws.conn.action(act)
		}
	}
	ws.conn.verdict(&wire)
	return nil
}

// BenchmarkServeStreamWarm is the instrumented warm path, gated by
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
				if err := ws.step(ctx, i); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkServeStreamUninstrumented is the identical frame path with
// the telemetry stripped; the ServeStreamWarm delta is the cost of the
// instrumentation itself.
func BenchmarkServeStreamUninstrumented(b *testing.B) {
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
				if err := ws.stepBare(ctx); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// TestServeWarmPathZeroAlloc pins the instrumented warm path's
// zero-allocation contract directly (benchguard enforces it in CI; this
// fails fast under plain go test). The race detector's instrumentation
// allocates, so the measurement only runs without it.
func TestServeWarmPathZeroAlloc(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation measurement is meaningless under -race")
	}
	ws := newWarmStream(t, true, true)
	ctx := context.Background()
	// Warm every pooled buffer and the slow ring's admission path.
	for i := 0; i < 64; i++ {
		if err := ws.step(ctx, i); err != nil {
			t.Fatal(err)
		}
	}
	frame := 64
	allocs := testing.AllocsPerRun(200, func() {
		if err := ws.step(ctx, frame); err != nil {
			t.Fatal(err)
		}
		frame++
	})
	if allocs != 0 {
		t.Errorf("instrumented warm path allocates %.1f allocs/frame, want 0", allocs)
	}
}
