package obs

import (
	"testing"
	"time"
)

// TestHotPathZeroAlloc pins the instrument-update contract: once
// registered, histograms and slow-ring offers touch no allocator. The
// race detector instruments atomics with allocating shadows, so the
// check only runs on non-race builds.
func TestHotPathZeroAlloc(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counting is unreliable under -race")
	}
	r := NewRegistry()
	h := r.Histogram("test_lat_seconds", "l", Label{"stage", "infer"})
	ring := NewSlowRing(4, time.Minute)
	meta := &SlowMeta{Backend: "b"}
	stages := [SlowStages]int64{10, 20}
	now := time.Now().UnixNano()
	n := int64(0)
	if allocs := testing.AllocsPerRun(1000, func() {
		h.ObserveNS(100 + n)
		ring.Offer(30+n, now+n, n, &stages, meta)
		n++
	}); allocs != 0 {
		t.Fatalf("hot-path update allocates %v allocs/op, want 0", allocs)
	}
}

func BenchmarkHistogramObserve(b *testing.B) {
	h := NewRegistry().Histogram("test_lat_seconds", "l")
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		h.ObserveNS(int64(i)&0xffff + 1)
	}
}

func BenchmarkSlowRingOffer(b *testing.B) {
	ring := NewSlowRing(32, time.Minute)
	meta := &SlowMeta{}
	stages := [SlowStages]int64{1}
	now := time.Now().UnixNano()
	// Warm the ring so the steady state is the fast-reject path.
	for i := int64(0); i < 64; i++ {
		ring.Offer(1e6+i, now, i, &stages, meta)
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		ring.Offer(100, now, int64(i), &stages, meta)
	}
}
