package obs

import (
	"strings"
	"testing"
)

func TestCounterGaugeRender(t *testing.T) {
	r := NewRegistry()
	r.CounterFunc("test_frames_total", "Frames served.", func() uint64 { return 4 }, Label{"shard", "0"})
	r.CounterFunc("test_frames_total", "Frames served.", func() uint64 { return 7 }, Label{"shard", "1"})
	r.GaugeFunc("test_queue_bytes", "Queue size.", func() float64 { return 12.5 })
	r.CounterFunc("test_drops_total", "Drops.", func() uint64 { return 9 })
	r.GaugeFunc("test_uptime_seconds", "Uptime.", func() float64 { return 2 })
	r.GaugeCollector("test_model_loaded_seconds", "Model load time.", func(emit Emit) {
		emit(1.5, Label{"backend", "a"})
		emit(2.5, Label{"backend", "b"})
	})

	var sb strings.Builder
	if err := r.WritePrometheus(&sb); err != nil {
		t.Fatal(err)
	}
	got := sb.String()
	want := `# HELP test_drops_total Drops.
# TYPE test_drops_total counter
test_drops_total 9
# HELP test_frames_total Frames served.
# TYPE test_frames_total counter
test_frames_total{shard="0"} 4
test_frames_total{shard="1"} 7
# HELP test_model_loaded_seconds Model load time.
# TYPE test_model_loaded_seconds gauge
test_model_loaded_seconds{backend="a"} 1.5
test_model_loaded_seconds{backend="b"} 2.5
# HELP test_queue_bytes Queue size.
# TYPE test_queue_bytes gauge
test_queue_bytes 12.5
# HELP test_uptime_seconds Uptime.
# TYPE test_uptime_seconds gauge
test_uptime_seconds 2
`
	if got != want {
		t.Fatalf("render mismatch:\n--- got ---\n%s\n--- want ---\n%s", got, want)
	}
}

func TestLabelCanonicalization(t *testing.T) {
	r := NewRegistry()
	// Key order must not matter: both orders name the same series.
	a := r.Histogram("test_x_seconds", "x", Label{"b", "2"}, Label{"a", "1"})
	b := r.Histogram("test_x_seconds", "x", Label{"a", "1"}, Label{"b", "2"})
	if a != b {
		t.Fatalf("label order minted distinct series")
	}
	a.ObserveNS(1)
	var sb strings.Builder
	r.WritePrometheus(&sb)
	if !strings.Contains(sb.String(), `test_x_seconds_count{a="1",b="2"} 1`) {
		t.Fatalf("labels not rendered sorted:\n%s", sb.String())
	}
}

func TestLabelValueEscaping(t *testing.T) {
	r := NewRegistry()
	r.CounterFunc("test_esc_total", "e", func() uint64 { return 1 }, Label{"v", "a\"b\\c\nd"})
	var sb strings.Builder
	r.WritePrometheus(&sb)
	if !strings.Contains(sb.String(), `test_esc_total{v="a\"b\\c\nd"} 1`) {
		t.Fatalf("escaping wrong:\n%s", sb.String())
	}
}

func TestRegistrationPanics(t *testing.T) {
	expectPanic := func(name string, fn func()) {
		t.Helper()
		defer func() {
			if recover() == nil {
				t.Fatalf("%s: expected panic", name)
			}
		}()
		fn()
	}
	zero := func() uint64 { return 0 }
	expectPanic("invalid name", func() { NewRegistry().Histogram("0bad", "x") })
	expectPanic("invalid label key", func() { NewRegistry().CounterFunc("test_a_total", "x", zero, Label{"0k", "v"}) })
	expectPanic("duplicate label key", func() {
		NewRegistry().Histogram("test_a_seconds", "x", Label{"k", "1"}, Label{"k", "2"})
	})
	expectPanic("kind conflict", func() {
		r := NewRegistry()
		r.CounterFunc("test_a_total", "x", zero)
		r.GaugeFunc("test_a_total", "x", func() float64 { return 0 })
	})
	expectPanic("func duplicate", func() {
		r := NewRegistry()
		r.CounterFunc("test_a_total", "x", func() uint64 { return 0 })
		r.CounterFunc("test_a_total", "x", func() uint64 { return 0 })
	})
	expectPanic("collector conflict", func() {
		r := NewRegistry()
		r.GaugeCollector("test_a_seconds", "x", func(Emit) {})
		r.GaugeFunc("test_a_seconds", "x", func() float64 { return 0 })
	})
}

func TestHistogramRender(t *testing.T) {
	r := NewRegistry()
	h := r.Histogram("test_lat_seconds", "Latency.", Label{"stage", "infer"})
	h.ObserveNS(1) // bucket 0: [1,2) ns
	h.ObserveNS(3) // bucket 1: [2,4) ns
	h.ObserveNS(3)
	var sb strings.Builder
	r.WritePrometheus(&sb)
	got := sb.String()
	for _, want := range []string{
		`test_lat_seconds_bucket{stage="infer",le="2e-09"} 1`,
		`test_lat_seconds_bucket{stage="infer",le="4e-09"} 3`,
		`test_lat_seconds_bucket{stage="infer",le="+Inf"} 3`,
		`test_lat_seconds_sum{stage="infer"} 7e-09`,
		`test_lat_seconds_count{stage="infer"} 3`,
	} {
		if !strings.Contains(got, want+"\n") {
			t.Fatalf("missing %q in:\n%s", want, got)
		}
	}
}
