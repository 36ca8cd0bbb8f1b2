package obs

import (
	"bufio"
	"fmt"
	"io"
	"net/http"
	"sort"
	"strconv"
	"sync"
)

// metric kinds, for the exposition TYPE line and cross-registration
// conflict checks.
type kind int

const (
	kindCounter kind = iota
	kindGauge
	kindHistogram
)

func (k kind) String() string {
	switch k {
	case kindCounter:
		return "counter"
	case kindGauge:
		return "gauge"
	case kindHistogram:
		return "histogram"
	}
	return "untyped"
}

// series is one labeled instance within a family. Exactly one of the
// value fields is set, matching the family kind.
type series struct {
	labels    string // canonical inner label rendering ("" for none)
	counterFn func() uint64
	gaugeFn   func() float64
	hist      *Histogram
}

// Emit is the callback a GaugeCollector fills series through at scrape
// time.
type Emit func(value float64, labels ...Label)

// family is one metric name: its help text, kind, and labeled series.
type family struct {
	name    string
	help    string
	kind    kind
	series  map[string]*series
	ordered []*series // insertion order; sorted lazily at render
	collect func(Emit)
}

// Registry holds metric families and renders them in the Prometheus
// text exposition format. Registration takes the registry mutex;
// updating a registered instrument never does.
type Registry struct {
	mu       sync.Mutex
	families map[string]*family
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{families: map[string]*family{}}
}

// register returns the family for name, creating it with the given kind
// and help on first use and enforcing kind/help consistency afterwards.
// Caller holds r.mu.
func (r *Registry) register(name, help string, k kind) *family {
	if !validName(name) {
		panic(fmt.Sprintf("obs: invalid metric name %q", name))
	}
	f := r.families[name]
	if f == nil {
		f = &family{name: name, help: help, kind: k, series: map[string]*series{}}
		r.families[name] = f
		return f
	}
	if f.kind != k {
		panic(fmt.Sprintf("obs: metric %s registered as both %s and %s", name, f.kind, k))
	}
	if f.collect != nil {
		panic(fmt.Sprintf("obs: metric %s already bound to a collector", name))
	}
	return f
}

// addSeries inserts a new series, panicking on a duplicate label set.
// Caller holds r.mu.
func (f *family) addSeries(s *series) {
	if _, dup := f.series[s.labels]; dup {
		panic(fmt.Sprintf("obs: metric %s{%s} registered twice", f.name, s.labels))
	}
	f.series[s.labels] = s
	f.ordered = append(f.ordered, s)
}

// Histogram registers (or returns the existing) log2 latency histogram
// for name+labels. Values are observed in nanoseconds and rendered in
// seconds (the Prometheus base unit).
func (r *Registry) Histogram(name, help string, labels ...Label) *Histogram {
	key := renderLabels(name, labels)
	r.mu.Lock()
	defer r.mu.Unlock()
	f := r.register(name, help, kindHistogram)
	if s := f.series[key]; s != nil {
		return s.hist
	}
	s := &series{labels: key, hist: &Histogram{}}
	f.addSeries(s)
	return s.hist
}

// CounterFunc registers a counter series whose value is read from fn at
// scrape time — the bridge to counters that live in pre-existing
// structs. Unlike Histogram, a duplicate registration panics: two owners
// for one series is a wiring bug.
func (r *Registry) CounterFunc(name, help string, fn func() uint64, labels ...Label) {
	key := renderLabels(name, labels)
	r.mu.Lock()
	defer r.mu.Unlock()
	f := r.register(name, help, kindCounter)
	f.addSeries(&series{labels: key, counterFn: fn})
}

// GaugeFunc registers a gauge series read from fn at scrape time.
// Duplicate registration panics.
func (r *Registry) GaugeFunc(name, help string, fn func() float64, labels ...Label) {
	key := renderLabels(name, labels)
	r.mu.Lock()
	defer r.mu.Unlock()
	f := r.register(name, help, kindGauge)
	f.addSeries(&series{labels: key, gaugeFn: fn})
}

// GaugeCollector registers a whole gauge family whose series are
// produced dynamically at scrape time — for label sets that change at
// runtime (e.g. model versions across hot-swaps). The family is
// exclusive: no static series may share its name.
func (r *Registry) GaugeCollector(name, help string, collect func(Emit)) {
	if !validName(name) {
		panic(fmt.Sprintf("obs: invalid metric name %q", name))
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if _, dup := r.families[name]; dup {
		panic(fmt.Sprintf("obs: metric %s registered twice", name))
	}
	r.families[name] = &family{name: name, help: help, kind: kindGauge, collect: collect}
}

// WritePrometheus renders every family in the text exposition format,
// sorted by family name and series label set for deterministic output.
func (r *Registry) WritePrometheus(w io.Writer) error {
	r.mu.Lock()
	names := make([]string, 0, len(r.families))
	for name := range r.families {
		names = append(names, name)
	}
	sort.Strings(names)
	fams := make([]*family, len(names))
	for i, name := range names {
		fams[i] = r.families[name]
	}
	r.mu.Unlock()

	bw := bufio.NewWriter(w)
	var buf []byte
	for _, f := range fams {
		fmt.Fprintf(bw, "# HELP %s %s\n# TYPE %s %s\n", f.name, f.help, f.name, f.kind)
		if f.collect != nil {
			f.collect(func(value float64, labels ...Label) {
				writeSample(bw, buf, f.name, renderLabels(f.name, labels), "", value)
			})
			continue
		}
		sort.Slice(f.ordered, func(i, j int) bool { return f.ordered[i].labels < f.ordered[j].labels })
		for _, s := range f.ordered {
			switch {
			case s.counterFn != nil:
				writeUintSample(bw, f.name, s.labels, s.counterFn())
			case s.gaugeFn != nil:
				writeSample(bw, buf, f.name, s.labels, "", s.gaugeFn())
			case s.hist != nil:
				writeHistogram(bw, buf, f.name, s.labels, s.hist)
			}
		}
	}
	return bw.Flush()
}

// writeUintSample renders `name{labels} value` with an integer value.
func writeUintSample(w *bufio.Writer, name, labels string, v uint64) {
	w.WriteString(name)
	if labels != "" {
		w.WriteByte('{')
		w.WriteString(labels)
		w.WriteByte('}')
	}
	w.WriteByte(' ')
	w.WriteString(strconv.FormatUint(v, 10))
	w.WriteByte('\n')
}

// writeSample renders `name{labels[,extra]} value` with a float value
// (shortest round-trip form, matching the exposition conventions).
func writeSample(w *bufio.Writer, scratch []byte, name, labels, extra string, v float64) {
	w.WriteString(name)
	if labels != "" || extra != "" {
		w.WriteByte('{')
		w.WriteString(labels)
		if labels != "" && extra != "" {
			w.WriteByte(',')
		}
		w.WriteString(extra)
		w.WriteByte('}')
	}
	w.WriteByte(' ')
	w.Write(strconv.AppendFloat(scratch[:0], v, 'g', -1, 64))
	w.WriteByte('\n')
}

// writeHistogram renders one histogram series: cumulative _bucket lines
// (le in seconds), the +Inf bucket, _sum (seconds) and _count.
func writeHistogram(w *bufio.Writer, scratch []byte, name, labels string, h *Histogram) {
	counts := h.Counts()
	var cum uint64
	for i, c := range counts {
		cum += c
		le := `le="` + bucketLE(i) + `"`
		writeSampleUintVal(w, name+"_bucket", labels, le, cum)
	}
	writeSampleUintVal(w, name+"_bucket", labels, `le="+Inf"`, cum)
	writeSample(w, scratch, name+"_sum", labels, "", float64(h.SumNS())/1e9)
	writeUintSample(w, name+"_count", labels, cum)
}

// writeSampleUintVal renders `name{labels,extra} value` with an integer
// value (the histogram bucket form).
func writeSampleUintVal(w *bufio.Writer, name, labels, extra string, v uint64) {
	w.WriteString(name)
	w.WriteByte('{')
	w.WriteString(labels)
	if labels != "" {
		w.WriteByte(',')
	}
	w.WriteString(extra)
	w.WriteByte('}')
	w.WriteByte(' ')
	w.WriteString(strconv.FormatUint(v, 10))
	w.WriteByte('\n')
}

// bucketLE renders bucket i's upper bound, 2^(i+1) ns, in seconds.
var bucketLEs = func() [LogBuckets]string {
	var out [LogBuckets]string
	for i := range out {
		ns := float64(uint64(1) << uint(i+1))
		out[i] = strconv.FormatFloat(ns/1e9, 'g', -1, 64)
	}
	return out
}()

func bucketLE(i int) string { return bucketLEs[i] }

// ContentType is the exposition-format content type Handler serves.
const ContentType = "text/plain; version=0.0.4; charset=utf-8"

// Handler returns the GET /metrics handler over this registry.
func (r *Registry) Handler() http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, req *http.Request) {
		if req.Method != http.MethodGet {
			http.Error(w, "GET only", http.StatusMethodNotAllowed)
			return
		}
		w.Header().Set("Content-Type", ContentType)
		r.WritePrometheus(w)
	})
}
