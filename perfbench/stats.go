package main

import (
	"bufio"
	"net/http"
	"net/http/httptest"
	"runtime/metrics"
	"sort"
	"strconv"
	"strings"
	"syscall"
	"time"

	"repro/safemon/serve"
)

// quantile returns the q-quantile of xs by linear interpolation between
// closest ranks; xs is sorted in place.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sort.Float64s(xs)
	pos := q * float64(len(xs)-1)
	lo := int(pos)
	if lo >= len(xs)-1 {
		return xs[len(xs)-1]
	}
	frac := pos - float64(lo)
	return xs[lo] + frac*(xs[lo+1]-xs[lo])
}

func median(xs []float64) float64 { return quantile(append([]float64(nil), xs...), 0.5) }

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var s float64
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}

// cpuTime is the process's user plus system CPU so far.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// peakRSSMB is the process's peak resident set size in MiB.
func peakRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024 // Maxrss is in KiB on Linux
}

// runtimeSample reads the runtime counters the traced run reports.
type runtimeSample struct {
	allocs          uint64
	gcCPU, totalCPU float64
}

func readRuntime() runtimeSample {
	s := []metrics.Sample{
		{Name: "/gc/heap/allocs:objects"},
		{Name: "/cpu/classes/gc/total:cpu-seconds"},
		{Name: "/cpu/classes/total:cpu-seconds"},
	}
	metrics.Read(s)
	var out runtimeSample
	if s[0].Value.Kind() == metrics.KindUint64 {
		out.allocs = s[0].Value.Uint64()
	}
	if s[1].Value.Kind() == metrics.KindFloat64 {
		out.gcCPU = s[1].Value.Float64()
	}
	if s[2].Value.Kind() == metrics.KindFloat64 {
		out.totalCPU = s[2].Value.Float64()
	}
	return out
}

// stageNames are the safemon_frame_stage_seconds stages the traced run
// reports.
var stageNames = []string{"decode", "queue", "infer", "guard", "ledger", "encode"}

// scrape is one read of the server's /metrics: per-stage sums (seconds)
// and counts summed over every backend and codec, and the queue-full
// counter summed over shards.
type scrape struct {
	stageSum   map[string]float64
	stageCount map[string]float64
	queueFull  float64
}

// scrapeMetrics renders the server's /metrics in process, the same
// exposition an operator's scraper reads, without opening a connection.
func scrapeMetrics(srv *serve.Server) scrape {
	rec := httptest.NewRecorder()
	srv.Metrics().Handler().ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/metrics", nil))
	out := scrape{stageSum: map[string]float64{}, stageCount: map[string]float64{}}
	sc := bufio.NewScanner(rec.Body)
	sc.Buffer(make([]byte, 64<<10), 1<<20)
	for sc.Scan() {
		line := sc.Text()
		sp := strings.LastIndexByte(line, ' ')
		if sp < 0 || strings.HasPrefix(line, "#") {
			continue
		}
		v, err := strconv.ParseFloat(line[sp+1:], 64)
		if err != nil {
			continue
		}
		switch {
		case strings.HasPrefix(line, "safemon_frame_stage_seconds_sum{"):
			out.stageSum[labelValue(line, "stage")] += v
		case strings.HasPrefix(line, "safemon_frame_stage_seconds_count{"):
			out.stageCount[labelValue(line, "stage")] += v
		case strings.HasPrefix(line, "safemon_queue_full_total{"):
			out.queueFull += v
		}
	}
	return out
}

func labelValue(line, key string) string {
	i := strings.Index(line, key+`="`)
	if i < 0 {
		return ""
	}
	rest := line[i+len(key)+2:]
	if j := strings.IndexByte(rest, '"'); j >= 0 {
		return rest[:j]
	}
	return ""
}

// stageMeanUS is one stage's mean per frame between two scrapes, in µs.
func stageMeanUS(a, b scrape, stage string) float64 {
	n := b.stageCount[stage] - a.stageCount[stage]
	if n <= 0 {
		return 0
	}
	return (b.stageSum[stage] - a.stageSum[stage]) / n * 1e6
}
