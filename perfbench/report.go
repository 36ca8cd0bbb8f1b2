package main

import (
	"bufio"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"time"
)

// sampler reads process CPU at every window boundary and, on traced runs,
// scrapes the server's /metrics and the runtime counters at the start and
// end of the traced half.
type sampler struct {
	d   *driver
	srv *service

	bounds []int64
	cpu    []time.Duration
	// scrapes and rt hold the traced half's start and end readings.
	scrapes [2]scrape
	rt      [2]runtimeSample
	done    chan struct{}
}

func newSampler(d *driver, srv *service) *sampler {
	return &sampler{d: d, srv: srv, done: make(chan struct{})}
}

func (s *sampler) loop(traced bool) {
	defer close(s.done)
	from := s.d.from
	type event struct {
		at     int64
		bound  bool
		traced int // 0 none, 1 start of the traced half, 2 its end
	}
	var evs []event
	for j := 0; j <= windows; j++ {
		evs = append(evs, event{at: from + int64(j)*s.d.measure/windows, bound: true})
	}
	if traced {
		evs = append(evs, event{at: s.d.tracedFrom, traced: 1}, event{at: s.d.stop, traced: 2})
	}
	sort.SliceStable(evs, func(i, j int) bool { return evs[i].at < evs[j].at })
	for _, ev := range evs {
		s.d.sleepUntil(ev.at)
		if ev.bound {
			// The actual wake time, not the planned one, delimits the
			// window, so rates and CPU shares divide by the true span.
			s.bounds = append(s.bounds, s.d.now())
			s.cpu = append(s.cpu, cpuTime())
		}
		if ev.traced > 0 {
			s.scrapes[ev.traced-1] = scrapeMetrics(s.srv.srv)
			s.rt[ev.traced-1] = readRuntime()
		}
	}
}

func (s *sampler) wait() { <-s.done }

// latency is the measured window's client-side summary.
type latency struct {
	// Medians over the windows of each window's value.
	p50, p95, fps, cpuPerFrame float64
	// Percentiles over the whole window's frames.
	p99, p999 float64
	frames    int
	// Generator lateness over the whole window, in µs, and the share of
	// frames the previous verdict delayed.
	lagP50, lagP99, stalledFrac float64
	// Mean latency (µs) of the untraced and traced halves of a traced run.
	meanUntraced, meanTraced float64
	tracedFrames             int
}

func analyze(d *driver, s *sampler) latency {
	var out latency
	var p50s, p95s, fpss, cpus []float64
	pooled := make([]uint64, histBuckets)
	for j := 0; j < windows && j+1 < len(s.bounds); j++ {
		counts := d.lat[j].snapshot()
		n := total(counts)
		if n == 0 {
			continue
		}
		for i, c := range counts {
			pooled[i] += c
		}
		secs := float64(s.bounds[j+1]-s.bounds[j]) / 1e9
		p50s = append(p50s, histQuantile(counts, 0.5))
		p95s = append(p95s, histQuantile(counts, 0.95))
		fpss = append(fpss, float64(n)/secs)
		cpus = append(cpus, float64((s.cpu[j+1]-s.cpu[j]).Nanoseconds())/1e3/float64(n))
		fmt.Fprintf(os.Stderr, "window %d: %d frames, p50 %.1f µs, p95 %.1f µs, p99 %.1f µs, %.1f CPU µs/frame\n",
			j, n, p50s[len(p50s)-1], p95s[len(p95s)-1], histQuantile(counts, 0.99), cpus[len(cpus)-1])
	}
	out.p50, out.p95, out.fps, out.cpuPerFrame = median(p50s), median(p95s), median(fpss), median(cpus)
	out.frames = int(total(pooled))
	out.p99 = histQuantile(pooled, 0.99)
	out.p999 = histQuantile(pooled, 0.999)

	lags := d.lag.snapshot()
	out.lagP50 = histQuantile(lags, 0.5)
	out.lagP99 = histQuantile(lags, 0.99)
	var measured, stalled int
	var half [2]float64
	var halfN [2]int
	for _, l := range d.logs {
		measured += l.measured
		stalled += l.stalled
		for h := range half {
			half[h] += l.halfSum[h]
			halfN[h] += l.halfN[h]
		}
	}
	if measured > 0 {
		out.stalledFrac = float64(stalled) / float64(measured)
	}
	if halfN[0] > 0 {
		out.meanUntraced = half[0] / float64(halfN[0])
	}
	if halfN[1] > 0 {
		out.meanTraced = half[1] / float64(halfN[1])
	}
	out.tracedFrames = halfN[1]
	return out
}

// checked is the correctness gate's tally.
type checked struct {
	attempted, failed    int
	compared, mismatched int
	trailMismatch        int
	problems             []string
}

func (c checked) failedFrac() float64 {
	if c.attempted == 0 {
		return 1
	}
	return float64(c.failed) / float64(c.attempted)
}

func (c checked) mismatchFrac() float64 {
	if c.compared == 0 {
		return 1
	}
	return float64(c.mismatched) / float64(c.compared)
}

func (c checked) ok() bool {
	return c.attempted > 0 && c.compared > 0 && c.mismatched == 0 && c.trailMismatch == 0 && len(c.problems) == 0
}

// check totals the sessions' verdict and action-trail comparisons, for
// complete replays and for those the end of the window cut off, and
// requires a complete replay of every trajectory.
func check(d *driver) checked {
	var c checked
	for _, l := range d.logs {
		c.attempted += l.attempted
		c.failed += l.failed
		for _, e := range l.errs {
			c.problems = append(c.problems, "session error: "+e)
		}
		for _, r := range l.replays {
			c.compared += r.frames
			c.mismatched += r.mismatched
			if r.trailBad {
				c.trailMismatch++
			}
		}
	}
	for i, r := range d.first {
		if r == nil {
			c.problems = append(c.problems, fmt.Sprintf("trajectory %d never completed a replay", i))
		}
	}
	return c
}

// serveLayers adds the traced half's client spans, server stages, runtime
// counters, generator lateness and the reconciliation.
func serveLayers(d *driver, s *sampler, lat latency, out map[string]metric) {
	spanMean := func(kind uint8) float64 {
		var sum float64
		var n int
		for _, l := range d.logs {
			sum += l.spanSum[kind]
			n += l.spanN[kind]
		}
		if n == 0 {
			return 0
		}
		return sum / float64(n)
	}
	send := spanMean(spanSend)
	out["serve.client.send_us"] = metric{send, "us"}
	out["serve.client.recv_wait_us"] = metric{spanMean(spanRecvWait), "us"}
	out["serve.client.open_us"] = metric{spanMean(spanOpen), "us"}
	// Every stage counts toward the reconciliation. Guard and ledger are
	// not reported on their own: they read a constant 0 on the workloads
	// that do not run them, and guard.step_ns and ledger.emit_ns cover
	// those layers on every workload.
	stages := 0.0
	for _, st := range stageNames {
		v := stageMeanUS(s.scrapes[0], s.scrapes[1], st)
		stages += v
		if st != "guard" && st != "ledger" {
			out["serve.stage."+st+"_us"] = metric{v, "us"}
		}
	}
	out["serve.queue_full"] = metric{s.scrapes[1].queueFull - s.scrapes[0].queueFull, "count"}

	allocs := float64(s.rt[1].allocs - s.rt[0].allocs)
	if lat.tracedFrames > 0 {
		allocs /= float64(lat.tracedFrames)
	}
	out["runtime.allocs_per_frame"] = metric{allocs, "count"}
	gcFrac := 0.0
	if dt := s.rt[1].totalCPU - s.rt[0].totalCPU; dt > 0 {
		gcFrac = (s.rt[1].gcCPU - s.rt[0].gcCPU) / dt
	}
	out["runtime.gc_cpu_frac"] = metric{gcFrac, "ratio"}

	out["loadgen.lag_p50_us"] = metric{lat.lagP50, "us"}
	out["loadgen.lag_p99_us"] = metric{lat.lagP99, "us"}
	out["loadgen.stalled_frac"] = metric{lat.stalledFrac, "ratio"}

	out["recon.unattributed_us"] = metric{lat.meanTraced - send - stages, "us"}
	out["recon.tracing_overhead_us"] = metric{lat.meanTraced - lat.meanUntraced, "us"}
}

// writeSpans dumps the traced spans as CSV, one file per workload and
// seed.
func writeSpans(dir, workload string, seed int64, d *driver) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	f, err := os.Create(filepath.Join(dir, fmt.Sprintf("%s-seed%d.csv", workload, seed)))
	if err != nil {
		return err
	}
	bw := bufio.NewWriter(f)
	fmt.Fprintln(bw, "trace,span,parent,name,start_ns,end_ns")
	for _, l := range d.logs {
		for _, sp := range l.spans {
			fmt.Fprintf(bw, "%d,%d,%d,%s,%d,%d\n", sp.trace, sp.id, sp.parent, spanNames[sp.kind], sp.start, sp.end)
		}
	}
	if err := bw.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
