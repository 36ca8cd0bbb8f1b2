package ledger

import (
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/kinematics"
	"repro/safemon/guard"
)

// discardStore is a DiskStore whose Append accepts every batch and
// writes nothing. The emit gates time the enqueue: over a real disk the
// writer falls behind a tight emit loop, and the loop would mostly time
// Emit's drop branch instead.
type discardStore struct{ *DiskStore }

func (discardStore) Append([]Event) error { return nil }

// BenchmarkLedgerAppend measures the hot-path enqueue: one stack-built
// verdict event per iteration through Recorder.Verdict into a live
// appender, whose writer drains the queue on its own tick, so no emit
// wakes it. benchguard.sh gates it at 0 allocs/op and 0 dropped/op — a
// slow disk may drop events, but emitting must never allocate or block,
// and a row that drops is timing the drop branch, not the enqueue. The
// closing drain runs outside the timer: it is teardown, not emit cost.
func BenchmarkLedgerAppend(b *testing.B) {
	a := NewAppender(discardStore{testStore(b)}, Options{Queue: 1 << 16})
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
	b.ReportMetric(float64(a.Stats().Dropped)/float64(b.N), "dropped/op")
}

// TestEmitZeroAlloc pins the enqueue path at zero allocations per event
// for every hot-path recorder call.
func TestEmitZeroAlloc(t *testing.T) {
	a := NewAppender(discardStore{testStore(t)}, Options{Queue: 1 << 16, FlushEvery: time.Hour})
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
