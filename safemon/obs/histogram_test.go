package obs

import "testing"

func TestHistogramObserveBuckets(t *testing.T) {
	var h Histogram
	h.ObserveNS(0)  // clamps to 1 → bucket 0
	h.ObserveNS(-5) // clamps to 1 → bucket 0
	h.ObserveNS(1024)
	h.ObserveNS(1 << 62) // clamps to the top bucket
	counts := h.Counts()
	if counts[0] != 2 || counts[10] != 1 || counts[LogBuckets-1] != 1 {
		t.Fatalf("bucket counts wrong: %v", counts)
	}
	if got := h.SumNS(); got != 1+1+1024+(1<<62) {
		t.Fatalf("sum = %d", got)
	}
}
