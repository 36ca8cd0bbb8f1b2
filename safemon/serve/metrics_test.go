package serve

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"net/http"
	"net/http/httptest"
	"os"
	"regexp"
	"sort"
	"strconv"
	"strings"
	"testing"

	"repro/safemon"
	"repro/safemon/guard"
	"repro/safemon/obs"
)

// promScrape is a parsed /metrics payload: one minimal exposition-format
// reader, strict enough to catch malformed output without pulling in a
// Prometheus client.
type promScrape struct {
	types   map[string]string  // family -> counter|gauge|histogram
	helps   map[string]string  // family -> help text
	samples map[string]float64 // name{labels} -> value
	order   []string           // sample keys in document order
}

var promSampleRe = regexp.MustCompile(`^([a-zA-Z_:][a-zA-Z0-9_:]*)(\{(.*)\})? (\S+)$`)

// family strips a histogram sample suffix back to its family name.
func promFamily(name string) string {
	for _, suf := range []string{"_bucket", "_sum", "_count"} {
		if strings.HasSuffix(name, suf) {
			return strings.TrimSuffix(name, suf)
		}
	}
	return name
}

// parseProm parses exposition text, failing the test on any line that is
// neither a well-formed comment nor a well-formed sample, on samples
// without a preceding TYPE/HELP, and on unparseable values.
func parseProm(t *testing.T, body string) *promScrape {
	t.Helper()
	p := &promScrape{
		types:   map[string]string{},
		helps:   map[string]string{},
		samples: map[string]float64{},
	}
	for _, line := range strings.Split(strings.TrimRight(body, "\n"), "\n") {
		if strings.HasPrefix(line, "# HELP ") {
			rest := strings.TrimPrefix(line, "# HELP ")
			name, help, ok := strings.Cut(rest, " ")
			if !ok || help == "" {
				t.Fatalf("malformed HELP line: %q", line)
			}
			if _, dup := p.helps[name]; dup {
				t.Fatalf("duplicate HELP for %s", name)
			}
			p.helps[name] = help
			continue
		}
		if strings.HasPrefix(line, "# TYPE ") {
			rest := strings.TrimPrefix(line, "# TYPE ")
			name, typ, ok := strings.Cut(rest, " ")
			if !ok || (typ != "counter" && typ != "gauge" && typ != "histogram") {
				t.Fatalf("malformed TYPE line: %q", line)
			}
			if _, dup := p.types[name]; dup {
				t.Fatalf("duplicate TYPE for %s", name)
			}
			p.types[name] = typ
			continue
		}
		m := promSampleRe.FindStringSubmatch(line)
		if m == nil {
			t.Fatalf("malformed sample line: %q", line)
		}
		name, labels, valStr := m[1], m[3], m[4]
		fam := promFamily(name)
		if _, ok := p.types[fam]; !ok {
			t.Fatalf("sample %q has no preceding TYPE for family %s", line, fam)
		}
		if _, ok := p.helps[fam]; !ok {
			t.Fatalf("sample %q has no preceding HELP for family %s", line, fam)
		}
		v, err := strconv.ParseFloat(valStr, 64)
		if err != nil || math.IsNaN(v) {
			t.Fatalf("sample %q has bad value %q: %v", line, valStr, err)
		}
		key := name
		if labels != "" {
			key = name + "{" + labels + "}"
		}
		if _, dup := p.samples[key]; dup {
			t.Fatalf("duplicate sample %s", key)
		}
		p.samples[key] = v
		p.order = append(p.order, key)
	}
	return p
}

// get fetches one sample by exact key, failing if absent.
func (p *promScrape) get(t *testing.T, key string) float64 {
	t.Helper()
	v, ok := p.samples[key]
	if !ok {
		t.Fatalf("metric %s not exposed", key)
	}
	return v
}

// sum totals one sample name over all its label sets. An absent name
// sums to 0.
func (p *promScrape) sum(name string) float64 {
	var total float64
	for key, v := range p.samples {
		if n, _, _ := strings.Cut(key, "{"); n == name {
			total += v
		}
	}
	return total
}

// activeSessions is opened minus closed sessions.
func (p *promScrape) activeSessions() float64 {
	return p.sum("safemon_sessions_opened_total") - p.sum("safemon_sessions_closed_total")
}

// checkConformance asserts the repo-wide metric contract over a scrape:
// safemon_ prefix, suffix discipline, and cumulative histograms whose
// +Inf bucket equals _count.
func (p *promScrape) checkConformance(t *testing.T) {
	t.Helper()
	unitRe := regexp.MustCompile(`_(seconds|bytes)$`)
	for fam, typ := range p.types {
		if !strings.HasPrefix(fam, "safemon_") {
			t.Errorf("family %s lacks the safemon_ prefix", fam)
		}
		// The suffix follows the type, as scripts/metriclint.sh enforces.
		total := strings.HasSuffix(fam, "_total")
		switch {
		case typ == "counter" && !total:
			t.Errorf("counter %s must end in _total", fam)
		case typ == "gauge" && total:
			t.Errorf("gauge %s must not end in _total", fam)
		case typ == "histogram" && !unitRe.MatchString(fam):
			t.Errorf("histogram %s must end in _seconds or _bytes", fam)
		}
	}
	// Group histogram buckets per family+labels (minus le) and require
	// cumulative, non-decreasing counts capped by the +Inf bucket.
	type histSeries struct {
		buckets map[float64]float64
		inf     float64
		hasInf  bool
	}
	hists := map[string]*histSeries{}
	leRe := regexp.MustCompile(`le="([^"]*)"(,)?`)
	for key, v := range p.samples {
		name, _, _ := strings.Cut(key, "{")
		if !strings.HasSuffix(name, "_bucket") {
			continue
		}
		m := leRe.FindStringSubmatch(key)
		if m == nil {
			t.Errorf("bucket sample %s has no le label", key)
			continue
		}
		series := strings.Replace(key, m[0], "", 1)
		series = strings.TrimSuffix(strings.Replace(series, "{}", "", 1), ",}") // normalize lone/trailing label
		hs := hists[series]
		if hs == nil {
			hs = &histSeries{buckets: map[float64]float64{}}
			hists[series] = hs
		}
		if m[1] == "+Inf" {
			hs.inf, hs.hasInf = v, true
			continue
		}
		le, err := strconv.ParseFloat(m[1], 64)
		if err != nil {
			t.Errorf("bucket %s has bad le %q", key, m[1])
			continue
		}
		hs.buckets[le] = v
	}
	for series, hs := range hists {
		if !hs.hasInf {
			t.Errorf("histogram %s has no +Inf bucket", series)
			continue
		}
		les := make([]float64, 0, len(hs.buckets))
		for le := range hs.buckets {
			les = append(les, le)
		}
		sort.Float64s(les)
		prev := 0.0
		for _, le := range les {
			if hs.buckets[le] < prev {
				t.Errorf("histogram %s bucket le=%v decreases: %v < %v", series, le, hs.buckets[le], prev)
			}
			prev = hs.buckets[le]
		}
		if prev > hs.inf {
			t.Errorf("histogram %s +Inf bucket %v below last bucket %v", series, hs.inf, prev)
		}
	}
}

// scrapeMetrics GETs url and parses the body, asserting the content type.
func scrapeMetrics(t *testing.T, c *http.Client, url string) *promScrape {
	t.Helper()
	resp, err := c.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET %s = %d", url, resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); ct != obs.ContentType {
		t.Fatalf("content type = %q, want %q", ct, obs.ContentType)
	}
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return parseProm(t, string(body))
}

// serverMetrics renders srv's registry in process and parses it, for
// callers that hold the server but no listener.
func serverMetrics(t *testing.T, srv *Server) *promScrape {
	t.Helper()
	var b strings.Builder
	if err := srv.Metrics().WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	return parseProm(t, b.String())
}

// TestMetricsGolden pins the exposition structure of a fresh ledgered,
// guarded server — every family, help string, type, and label set — with
// sample values redacted (they are load- and clock-dependent).
func TestMetricsGolden(t *testing.T) {
	det := fittedDetector(t, "envelope")
	srv, err := NewServer(Config{
		Detectors: map[string]safemon.Detector{"envelope": det},
		Policies:  []guard.Policy{testGuardPolicy()},
		Ledger:    newDiskLedger(t, t.TempDir()),
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(srv.Shutdown)

	rr := httptest.NewRecorder()
	srv.Handler().ServeHTTP(rr, httptest.NewRequest(http.MethodGet, "/metrics", nil))
	if rr.Code != http.StatusOK {
		t.Fatalf("GET /metrics = %d", rr.Code)
	}
	var redacted strings.Builder
	for _, line := range strings.Split(strings.TrimRight(rr.Body.String(), "\n"), "\n") {
		if strings.HasPrefix(line, "#") {
			redacted.WriteString(line)
		} else {
			i := strings.LastIndexByte(line, ' ')
			if i < 0 {
				t.Fatalf("malformed sample line %q", line)
			}
			redacted.WriteString(line[:i] + " <v>")
		}
		redacted.WriteByte('\n')
	}
	got := redacted.String()

	const goldenPath = "testdata/metrics.golden"
	if os.Getenv("UPDATE_GOLDEN") != "" {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(goldenPath, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(goldenPath)
	if err != nil {
		t.Fatalf("read golden (run with UPDATE_GOLDEN=1 to regenerate): %v", err)
	}
	if got != string(want) {
		t.Errorf("metrics structure drifted from %s (UPDATE_GOLDEN=1 regenerates)\ngot:\n%s", goldenPath, got)
	}
	parseProm(t, rr.Body.String()).checkConformance(t)
}

// metricsTestService stands up the full pipeline — session manager, guard
// policy, ledger, both transports — and drives traffic over each so every
// instrumented path has run at least once.
func metricsTestService(t *testing.T) (*Server, *Client) {
	t.Helper()
	det := fittedDetector(t, "envelope")
	app := newDiskLedger(t, t.TempDir())
	srv, err := NewServer(Config{
		Detectors: map[string]safemon.Detector{"envelope": det},
		Policies:  []guard.Policy{testGuardPolicy()},
		Ledger:    app,
	})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(func() {
		ts.Close()
		srv.Shutdown()
	})
	client := &Client{BaseURL: ts.URL, HTTPClient: ts.Client()}
	ctx := context.Background()
	fold := testFold(t)

	// One NDJSON stream.
	if _, err := client.StreamTrajectory(ctx, "envelope", fold.Test[0]); err != nil {
		t.Fatal(err)
	}
	// One multiplexed logical session.
	m, err := client.OpenMux(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := m.StreamTrajectory(ctx, "envelope", "", fold.Test[0]); err != nil {
		t.Fatal(err)
	}
	m.Close()
	// A guarded stream that latches at least one mitigation transition.
	safe, wild := guardProbeFrames(t)
	st, err := client.OpenGuarded(ctx, "envelope", testGuardPolicy().Name, nil)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 8; i++ {
		f := wild
		if i < 2 {
			f = safe
		}
		if err := st.Send(&f); err != nil {
			t.Fatal(err)
		}
		if _, err := st.Recv(); err != nil {
			t.Fatal(err)
		}
	}
	st.Close()

	// Quiesce: all sessions released and the ledger flushed, so scrapes
	// read settled counters.
	waitReleased(t, srv)
	app.Flush()
	return srv, client
}

// TestMetricsMatchTraffic pins /metrics to the exact counts implied by
// the traffic metricsTestService drives: fold.Test[0] (N frames) once
// over NDJSON and once over mux, plus an 8-frame guarded NDJSON stream
// (2 safe, 6 wild) that latches a safe-stop.
func TestMetricsMatchTraffic(t *testing.T) {
	_, client := metricsTestService(t)
	n := float64(len(testFold(t).Test[0].Frames))
	scrape := scrapeMetrics(t, client.httpClient(), client.BaseURL+"/metrics")
	scrape.checkConformance(t)

	type check struct {
		name      string
		got, want float64
	}
	checks := []check{
		{"frames", scrape.sum("safemon_frames_total"), 2*n + 8},
		{"sessions opened", scrape.sum("safemon_sessions_opened_total"), 3},
		{"sessions closed", scrape.sum("safemon_sessions_closed_total"), 3},
		{"queue full", scrape.sum("safemon_queue_full_total"), 0},
		{"session panics", scrape.get(t, "safemon_session_panics_total"), 0},
		{"json streams", scrape.get(t, `safemon_streams_total{codec="json"}`), 2},
		{"mux connections", scrape.get(t, "safemon_mux_connections_total"), 1},
		{"mux sessions", scrape.get(t, "safemon_mux_sessions_total"), 1},
		// Evidence from frame 2: debounce confirms at 3 (alert, warn),
		// then one rung per frame up to the safe-stop cap, which latches.
		{"guarded streams", scrape.get(t, "safemon_guarded_streams_total"), 1},
		{"alerts", scrape.get(t, `safemon_guard_transitions_total{action="alert"}`), 1},
		{"warns", scrape.get(t, `safemon_guard_transitions_total{action="warn"}`), 1},
		{"pauses", scrape.get(t, `safemon_guard_transitions_total{action="pause"}`), 1},
		{"safe stops", scrape.get(t, `safemon_guard_transitions_total{action="safe_stop"}`), 1},
		{"retracts", scrape.get(t, `safemon_guard_transitions_total{action="retract"}`), 0},
		{"releases", scrape.get(t, `safemon_guard_transitions_total{action="release"}`), 0},
		{"ledger dropped", scrape.get(t, "safemon_ledger_dropped_total"), 0},
		{"ledger errors", scrape.get(t, "safemon_ledger_errors_total"), 0},
	}
	// Each codec's infer-stage count is the frames it carried; the
	// guarded stream rides NDJSON.
	for _, c := range []struct {
		codec  string
		frames float64
	}{{"json", n + 8}, {"binary-mux", n}} {
		key := fmt.Sprintf(`safemon_frame_stage_seconds_count{backend="envelope",codec=%q,stage="infer"}`, c.codec)
		checks = append(checks, check{c.codec + " infer stage", scrape.get(t, key), c.frames})
	}
	for _, c := range checks {
		if c.got != c.want {
			t.Errorf("%s = %v, want %v", c.name, c.got, c.want)
		}
	}
	// Uptime must be exported (value is clock-dependent, presence is not).
	if scrape.get(t, "safemon_uptime_seconds") <= 0 {
		t.Error("safemon_uptime_seconds not positive")
	}
	if got := scrape.get(t, `safemon_model_loaded_seconds{backend="envelope",version="unversioned"}`); got <= 0 {
		t.Errorf("model_loaded_seconds = %v", got)
	}
}

// TestGuardedStreamStages pins the stage set of a guarded stream on a
// ledgered server: the policy steps inside the session's Push, so every
// frame is timed in decode, infer, ledger and encode, and no guard stage
// exists, neither in the histograms nor in a slow-frame exemplar.
func TestGuardedStreamStages(t *testing.T) {
	srv, client := metricsTestService(t)
	n := float64(len(testFold(t).Test[0].Frames))
	scrape := scrapeMetrics(t, client.httpClient(), client.BaseURL+"/metrics")
	for _, c := range []struct {
		codec  string
		frames float64
	}{{"json", n + 8}, {"binary-mux", n}} {
		key := func(stage string) string {
			return fmt.Sprintf(`safemon_frame_stage_seconds_count{backend="envelope",codec=%q,stage=%q}`, c.codec, stage)
		}
		for _, stage := range []string{"decode", "infer", "ledger", "encode"} {
			if got := scrape.get(t, key(stage)); got != c.frames {
				t.Errorf("%s %s stage count = %v, want %v", c.codec, stage, got, c.frames)
			}
		}
		if _, ok := scrape.samples[key("guard")]; ok {
			t.Errorf("%s streams register a guard stage", c.codec)
		}
	}
	for i, f := range srv.SlowFrames() {
		if len(f.StageMS) != 4 {
			t.Errorf("exemplar %d stages = %v, want decode, infer, ledger and encode", i, f.StageMS)
		}
	}
}

// TestSlowFrameExemplars requires the debug ring to surface frames from
// the traffic above with a full, consistent stage breakdown.
func TestSlowFrameExemplars(t *testing.T) {
	srv, client := metricsTestService(t)
	resp, err := client.httpClient().Get(client.BaseURL + "/v1/debug/slowframes")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET /v1/debug/slowframes = %d", resp.StatusCode)
	}
	var payload struct {
		SlowFrames []SlowFrameInfo `json:"slow_frames"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&payload); err != nil {
		t.Fatal(err)
	}
	if len(payload.SlowFrames) == 0 {
		t.Fatal("no slow-frame exemplars after live traffic")
	}
	prev := math.Inf(1)
	for i, f := range payload.SlowFrames {
		if f.TotalMS <= 0 || f.TotalMS > prev {
			t.Errorf("exemplar %d total %v not positive-descending (prev %v)", i, f.TotalMS, prev)
		}
		prev = f.TotalMS
		if f.Backend != "envelope" || f.Session == 0 || f.Model != "unversioned" {
			t.Errorf("exemplar %d context = %+v", i, f)
		}
		switch f.Codec {
		case "json", "binary-mux":
		default:
			t.Errorf("exemplar %d codec = %q", i, f.Codec)
		}
		var stageSum float64
		for name, ms := range f.StageMS {
			found := false
			for _, s := range stageNames {
				if s == name {
					found = true
				}
			}
			if !found {
				t.Errorf("exemplar %d has unknown stage %q", i, name)
			}
			stageSum += ms
		}
		if math.Abs(stageSum-f.TotalMS) > 1e-6 {
			t.Errorf("exemplar %d stages sum to %v, total %v", i, stageSum, f.TotalMS)
		}
	}
	if got := len(srv.SlowFrames()); got != len(payload.SlowFrames) {
		t.Errorf("SlowFrames() = %d rows, endpoint returned %d", got, len(payload.SlowFrames))
	}
}

// TestReadyzDrain pins the readiness contract on both the traffic port
// and the ops handler: ready before BeginDrain, 503 after, while an
// in-flight stream keeps streaming and /healthz stays live.
func TestReadyzDrain(t *testing.T) {
	det := fittedDetector(t, "envelope")
	srv, client := newTestService(t, map[string]safemon.Detector{"envelope": det}, ManagerConfig{})
	ops := httptest.NewServer(srv.OpsHandler())
	t.Cleanup(ops.Close)
	ctx := context.Background()
	traj := testFold(t).Test[0]

	status := func(url string) int {
		t.Helper()
		resp, err := client.httpClient().Get(url)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		return resp.StatusCode
	}
	for _, base := range []string{client.BaseURL, ops.URL} {
		if got := status(base + "/readyz"); got != http.StatusOK {
			t.Fatalf("pre-drain readyz on %s = %d", base, got)
		}
	}

	st, err := client.Open(ctx, "envelope", nil)
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	if err := st.Send(&traj.Frames[0]); err != nil {
		t.Fatal(err)
	}
	if _, err := st.Recv(); err != nil {
		t.Fatal(err)
	}

	srv.BeginDrain()
	for _, base := range []string{client.BaseURL, ops.URL} {
		if got := status(base + "/readyz"); got != http.StatusServiceUnavailable {
			t.Errorf("draining readyz on %s = %d, want 503", base, got)
		}
		// /healthz has always reported draining as 503 (safemond's drain
		// sequence predates /readyz); pin that the two probes agree.
		if got := status(base + "/healthz"); got != http.StatusServiceUnavailable {
			t.Errorf("draining healthz on %s = %d, want 503", base, got)
		}
	}
	// The in-flight stream finishes undisturbed while readyz says 503.
	for i := 1; i < 10; i++ {
		if err := st.Send(&traj.Frames[i]); err != nil {
			t.Fatalf("in-flight send during drain: %v", err)
		}
		if _, err := st.Recv(); err != nil {
			t.Fatalf("in-flight verdict during drain: %v", err)
		}
	}
	// The ops surface also serves metrics and pprof throughout the drain.
	scrapeMetrics(t, client.httpClient(), ops.URL+"/metrics")
	if got := status(ops.URL + "/debug/pprof/cmdline"); got != http.StatusOK {
		t.Errorf("pprof on ops listener = %d", got)
	}
}
