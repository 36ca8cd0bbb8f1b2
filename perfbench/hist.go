package main

import (
	"math/bits"
	"sync/atomic"
)

// hist is a log-linear histogram of nanosecond durations, safe for
// concurrent add. Values below 128 ns are exact; above, each power of
// two splits into 64 linear buckets, so a bucket is at most 1/64 of its
// value wide. Its memory is fixed, so recording never grows the heap
// whose peak the benchmark reports.
type hist struct {
	counts [histBuckets]atomic.Uint64
}

// histBuckets covers durations up to 2^40 ns (18 minutes).
const histBuckets = 128 + 33*64

func histIndex(v uint64) int {
	if v < 128 {
		return int(v)
	}
	e := bits.Len64(v) - 7 // v>>e is in [64, 128)
	i := 128 + (e-1)*64 + int(v>>e) - 64
	if i >= histBuckets {
		return histBuckets - 1
	}
	return i
}

// histBounds returns bucket i's lower bound and width in ns.
func histBounds(i int) (lo, width float64) {
	if i < 128 {
		return float64(i), 1
	}
	e := (i-128)/64 + 1
	m := uint64((i-128)%64 + 64)
	return float64(m << e), float64(uint64(1) << e)
}

func (h *hist) add(ns int64) {
	if ns < 0 {
		ns = 0
	}
	h.counts[histIndex(uint64(ns))].Add(1)
}

// snapshot copies the counts for reading.
func (h *hist) snapshot() []uint64 {
	out := make([]uint64, histBuckets)
	for i := range out {
		out[i] = h.counts[i].Load()
	}
	return out
}

func total(counts []uint64) uint64 {
	var n uint64
	for _, c := range counts {
		n += c
	}
	return n
}

// histQuantile returns the q-quantile of counts in µs, interpolating
// linearly inside the bucket that holds it.
func histQuantile(counts []uint64, q float64) float64 {
	rank := q * float64(total(counts))
	var cum float64
	for i, c := range counts {
		if c == 0 {
			continue
		}
		if cum+float64(c) >= rank {
			lo, width := histBounds(i)
			return (lo + (rank-cum)/float64(c)*width) / 1e3
		}
		cum += float64(c)
	}
	return 0
}
