package obs

import (
	"math"
	"math/bits"
	"sync/atomic"
	"time"
)

// LogBuckets is the number of power-of-two latency buckets: bucket i
// counts durations in [2^i, 2^(i+1)) nanoseconds, covering
// sub-microsecond operations up to multi-second stalls (2^36 ns ≈ 69 s;
// anything slower clamps into the top bucket).
const LogBuckets = 36

// Histogram is a lock-free log2 latency histogram: 36 power-of-two
// nanosecond buckets plus a running sum. ObserveNS is two atomic adds —
// no locks, no allocation — so it is safe on the per-frame hot path;
// scrapes snapshot the buckets concurrently. Rendered values (bucket
// bounds, sum) are in seconds, the Prometheus base unit.
type Histogram struct {
	counts [LogBuckets]atomic.Uint64
	sumNS  atomic.Int64
}

// Observe records one duration sample.
func (h *Histogram) Observe(d time.Duration) { h.ObserveNS(d.Nanoseconds()) }

// ObserveNS records one sample in nanoseconds (values < 1 count as 1).
func (h *Histogram) ObserveNS(ns int64) {
	if ns < 1 {
		ns = 1
	}
	i := bits.Len64(uint64(ns)) - 1
	if i >= LogBuckets {
		i = LogBuckets - 1
	}
	h.counts[i].Add(1)
	h.sumNS.Add(ns)
}

// Counts snapshots the bucket counts.
func (h *Histogram) Counts() [LogBuckets]uint64 {
	var counts [LogBuckets]uint64
	for i := range counts {
		counts[i] = h.counts[i].Load()
	}
	return counts
}

// SumNS returns the running sum of observed nanoseconds.
func (h *Histogram) SumNS() int64 { return h.sumNS.Load() }

// floatBits / floatFromBits are the Gauge's float64 <-> atomic bits
// mapping.
func floatBits(v float64) uint64     { return math.Float64bits(v) }
func floatFromBits(b uint64) float64 { return math.Float64frombits(b) }
