// Command perfbench is the repository's benchmark of the safemon serving
// path: one process generates the workload's inputs from its seed, fits
// the workload's detector, serves it with an in-process serve.Server on a
// loopback listener, and drives it with robots that each send one
// kinematics frame, wait for the verdict and send the next frame at its
// scheduled time. Every served verdict is checked == against the offline
// Runner. Run it through run.sh from the repository root:
//
//	bash perfbench/run.sh --workload monitor-30hz --seed 1 --seconds 20 --trace 0
//
// With --trace 0 it prints the end-to-end metrics; with --trace 1 it
// times every layer from outside and prints the per-layer metrics. The
// last line of standard output is one JSON object with the keys correct,
// attempted, failed and metrics. README.md lists the workloads and
// metrics.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"time"

	"repro/internal/core"
	"repro/safemon"
)

// metric is one reported value with its unit.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// Run shape: warm up, then measure in windows and report each windowed
// metric's median over the windows. setupRuns is how many times setup
// runs; setup_s is their median.
const (
	warmup    = time.Second
	windows   = 10
	setupRuns = 3
	// deadline bounds a whole run: past it the run fails instead of
	// overrunning its caller's budget.
	deadline = 170 * time.Second
)

func main() {
	os.Exit(run())
}

func run() int {
	var (
		name       = flag.String("workload", "", "workload name (see BENCHMARK.json)")
		seed       = flag.Int64("seed", 1, "traffic seed: session schedules, phases and replay order")
		corpusSeed = flag.Int64("corpus-seed", 1, "corpus seed: synthetic demos and detector fit")
		seconds    = flag.Int("seconds", 20, "measured seconds")
		trace      = flag.Int("trace", 0, "1 times every layer and prints the per-layer metrics")
		root       = flag.String("root", ".", "repository checkout (reads BENCHMARK.json)")
		build      = flag.String("build", ".bench_build", "directory for temporary files and span dumps")
	)
	flag.Parse()
	w, err := findWorkload(*name)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 2
	}
	declared, err := declaredMetrics(filepath.Join(*root, "BENCHMARK.json"), *trace == 1)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 2
	}
	tmp := filepath.Join(*build, "tmp")
	if err := os.MkdirAll(tmp, 0o755); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 2
	}
	watchdog := time.AfterFunc(deadline, func() {
		fmt.Fprintln(os.Stderr, "perfbench: run exceeded", deadline)
		os.Exit(3)
	})
	defer watchdog.Stop()

	b := &bench{w: w, seed: *seed, corpusSeed: *corpusSeed, measure: time.Duration(*seconds) * time.Second,
		traced: *trace == 1, tmp: tmp, spanDir: filepath.Join(*build, "spans")}
	res, err := b.run(context.Background())
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	if err := checkDeclared(res.Metrics, declared); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	fmt.Println(string(line))
	if !res.Correct {
		return 1
	}
	return 0
}

type bench struct {
	w                workload
	seed, corpusSeed int64
	measure          time.Duration
	traced           bool
	tmp, spanDir     string
}

func (b *bench) run(ctx context.Context) (*result, error) {
	// Set up setupRuns times and keep the last service; setup_s is the
	// median.
	var svc *service
	var setups []float64
	for i := 0; i < setupRuns; i++ {
		if svc != nil {
			svc.stop()
		}
		runtime.GC()
		t := time.Now()
		s, err := startService(ctx, b.w, b.corpusSeed, b.tmp)
		if err != nil {
			return nil, fmt.Errorf("setup: %w", err)
		}
		setups = append(setups, time.Since(t).Seconds())
		fmt.Fprintf(os.Stderr, "setup %d: %.3f s\n", i, setups[i])
		svc = s
	}
	defer func() {
		if svc != nil {
			svc.stop()
		}
	}()
	ref, err := buildReference(ctx, b.w, svc)
	if err != nil {
		return nil, fmt.Errorf("reference: %w", err)
	}

	open, closeTransport, err := newOpener(ctx, b.w, svc.base)
	if err != nil {
		return nil, fmt.Errorf("dial: %w", err)
	}
	d := &driver{w: b.w, c: svc.corpus, ref: ref, open: open, plans: makePlans(b.w, svc.corpus, b.seed),
		period: periodNS(b.w), epoch: time.Now()}
	samp := newSampler(d, svc)
	traceFrom := -1.0
	if b.traced {
		traceFrom = 0.5 // first half untraced, second half traced
	}
	runtime.GC()
	d.run(ctx, warmup, b.measure, traceFrom, func() { go samp.loop(b.traced) })
	closeTransport()
	samp.wait()
	rss := peakRSSMB()

	out := map[string]metric{}
	res := &result{Metrics: out}
	chk := check(d)
	res.Attempted, res.Failed = chk.attempted, chk.failed
	res.Correct = chk.ok()
	fmt.Printf("%s: %d frames attempted, failed_frac %.6f, mismatch_frac %.6f, action trail mismatches %d\n",
		b.w.name, chk.attempted, chk.failedFrac(), chk.mismatchFrac(), chk.trailMismatch)
	for _, e := range chk.problems {
		fmt.Fprintln(os.Stderr, "perfbench:", e)
	}

	lat := analyze(d, samp)
	if b.w.hz > 0 && lat.lagP99 > float64(d.period)/1e3 {
		res.Correct = false
		fmt.Fprintf(os.Stderr, "perfbench: invalid run: generator lag p99 %.0f µs exceeds the %.0f µs frame period\n",
			lat.lagP99, float64(d.period)/1e3)
	}

	if !b.traced {
		q, err := quality(svc, d)
		if err != nil {
			return nil, err
		}
		fmt.Printf("%s: %d measured verdicts, tail not gated: p95 %.1f µs (median over windows), p99 %.1f µs, p99.9 %.1f µs\n",
			b.w.name, lat.frames, lat.p95, lat.p99, lat.p999)
		fmt.Printf("%s: detect_f1 %.4f, reaction %.1f ms over %d detected of %d errors\n",
			b.w.name, q.F1, mean(q.ReactionTimesMS), len(q.ReactionTimesMS), q.TotalErrors)
		out["setup_s"] = metric{median(setups), "s"}
		out["verdict_p50_us"] = metric{lat.p50, "us"}
		out["frames_per_s"] = metric{lat.fps, "1/s"}
		out["cpu_us_per_frame"] = metric{lat.cpuPerFrame, "us"}
		out["peak_rss_mb"] = metric{rss, "MiB"}
		out["answered_frac"] = metric{1 - chk.failedFrac(), "ratio"}
		out["verdict_match_frac"] = metric{1 - chk.mismatchFrac(), "ratio"}
		out["detect_f1"] = metric{q.F1, "ratio"}
		out["reaction_frames"] = metric{mean(q.ReactionTimesMS) / msPerFrame, "frames"}
		return res, nil
	}

	// Traced run: the serving layers from the traced half, then the layer
	// probes with the server stopped.
	serveLayers(d, samp, lat, out)
	if err := writeSpans(b.spanDir, b.w.name, b.seed, d); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench: spans:", err)
	}
	svc.stop()
	det, corp := svc.det, svc.corpus
	svc = nil
	nnDet := det
	if b.w.backend != "context-aware" {
		// The cascade gates a context-aware detector fitted with the same
		// options; its layers are probed on a standalone twin.
		if nnDet, err = fitDetector(ctx, "context-aware", b.w, corp, b.corpusSeed); err != nil {
			return nil, err
		}
	}
	err = probeLayers(ctx, probeInput{w: b.w, det: det, nnDet: nnDet, corpus: corp, ref: ref,
		seed: b.corpusSeed, tmp: b.tmp}, out)
	if err != nil {
		res.Correct = false
		fmt.Fprintln(os.Stderr, "perfbench:", err)
	}
	return res, nil
}

// quality evaluates each scored trajectory's first complete served
// replay with core.EvaluateTraces.
func quality(svc *service, d *driver) (*core.PipelineReport, error) {
	var traces []*core.Trace
	var trajs []*safemon.Trajectory
	var truths [][]core.ErrorTruth
	for i, scored := range svc.corpus.scored {
		if !scored {
			continue
		}
		r := d.first[i]
		if r == nil {
			return nil, fmt.Errorf("trajectory %d never completed a replay", i)
		}
		traces = append(traces, &core.Trace{Verdicts: r.verdicts})
		trajs = append(trajs, svc.corpus.replays[i])
		truths = append(truths, svc.corpus.truths[i])
	}
	info := svc.det.Info()
	return core.EvaluateTraces(trajs, traces, truths, info.Threshold, info.PredictsContext)
}

// declaredMetrics reads the metric names BENCHMARK.json declares for the
// run's mode.
func declaredMetrics(path string, traced bool) ([]string, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var spec struct {
		EndToEnd []struct{ Name string } `json:"end_to_end"`
		PerLayer []struct{ Name string } `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &spec); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	list := spec.EndToEnd
	if traced {
		list = spec.PerLayer
	}
	var names []string
	for _, m := range list {
		names = append(names, m.Name)
	}
	return names, nil
}

// checkDeclared fails when the run's metrics differ from the declared set.
func checkDeclared(got map[string]metric, declared []string) error {
	want := map[string]bool{}
	for _, n := range declared {
		want[n] = true
		if _, ok := got[n]; !ok {
			return fmt.Errorf("declared metric %q was not measured", n)
		}
	}
	var extra []string
	for n := range got {
		if !want[n] {
			extra = append(extra, n)
		}
	}
	if len(extra) > 0 {
		sort.Strings(extra)
		return fmt.Errorf("measured metrics missing from BENCHMARK.json: %v", extra)
	}
	return nil
}
