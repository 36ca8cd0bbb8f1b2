package ledger

import (
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/kinematics"
	"repro/safemon/guard"
)

// BenchmarkLedgerAppend measures the hot-path enqueue: one stack-built
// verdict event per iteration through Recorder.Verdict into a live
// appender. benchguard.sh gates it at 0 allocs/op — a slow disk may drop
// events, but emitting must never allocate or block. The closing drain
// runs outside the timer: it is teardown, not emit cost.
func BenchmarkLedgerAppend(b *testing.B) {
	a := NewAppender(NewMemoryStore(0), Options{Queue: 1 << 16})
	rec := NewRecorder(a, "context", "v1", "default")
	var input kinematics.Frame
	for i := range input {
		input[i] = float64(i) * 0.1
	}
	v := core.FrameVerdict{FrameIndex: 3, Gesture: 2, Score: 1.25}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rec.Verdict(v, &input)
	}
	b.StopTimer()
	a.Close()
}

// TestEmitZeroAlloc pins the enqueue path at zero allocations per event
// for every hot-path recorder call.
func TestEmitZeroAlloc(t *testing.T) {
	a := NewAppender(NewMemoryStore(0), Options{Queue: 1 << 16, FlushEvery: time.Hour})
	defer a.Close()
	rec := NewRecorder(a, "context", "v1", "default")
	var input kinematics.Frame
	v := core.FrameVerdict{FrameIndex: 3, Gesture: 2, Score: 1.25, Unsafe: true}
	d := guard.Decision{Action: guard.ActionWarn, Changed: true, FrameIndex: 3, AlertFrame: 3, Score: 1.25}
	if n := testing.AllocsPerRun(200, func() {
		rec.Verdict(v, &input)
		rec.Action(d)
	}); n != 0 {
		t.Fatalf("hot-path emit allocates %.1f allocs/op, want 0", n)
	}
}
