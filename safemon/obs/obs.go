// Package obs is the service's telemetry core: a stdlib-only metrics
// registry whose instruments — atomic counters, gauges and fixed-bucket
// log2 histograms — are safe for concurrent use and allocation-free to
// update, rendered on demand in the Prometheus text exposition format.
//
// The design premise is that the serving hot path (one frame through
// decode → shard → inference → guard → encode) must stay 0 allocs/frame
// with telemetry enabled, so every instrument is registered once at
// stream admission or startup (where allocation is fine) and updated
// through plain atomic adds (a few ns, no locks, no interface calls).
// Scrapes walk the registry under its mutex, but writers never touch
// that mutex: registration and observation are fully decoupled.
//
// Two registration styles exist, so a counter that already lives
// elsewhere is exported without a second copy to keep in sync:
//
//   - Counter/Gauge/Histogram mint a registry-owned instrument and are
//     idempotent: re-registering the same name+labels returns the same
//     instrument, which lets per-stream code "register" its series on
//     every admission and pay only a map lookup after the first.
//   - CounterFunc/GaugeFunc/GaugeCollector bind a series (or a whole
//     family) to a read function over counters that live elsewhere —
//     the server's existing atomics — so /metrics reads that memory
//     directly.
package obs

import (
	"fmt"
	"sort"
	"strings"
)

// Label is one name/value pair attached to a metric series.
type Label struct {
	Key   string
	Value string
}

// validName reports whether s is a legal Prometheus metric name:
// [a-zA-Z_:][a-zA-Z0-9_:]*.
func validName(s string) bool {
	if s == "" {
		return false
	}
	for i := 0; i < len(s); i++ {
		c := s[i]
		switch {
		case c >= 'a' && c <= 'z', c >= 'A' && c <= 'Z', c == '_', c == ':':
		case c >= '0' && c <= '9':
			if i == 0 {
				return false
			}
		default:
			return false
		}
	}
	return true
}

// validLabelKey reports whether s is a legal label name:
// [a-zA-Z_][a-zA-Z0-9_]*.
func validLabelKey(s string) bool {
	if s == "" {
		return false
	}
	for i := 0; i < len(s); i++ {
		c := s[i]
		switch {
		case c >= 'a' && c <= 'z', c >= 'A' && c <= 'Z', c == '_':
		case c >= '0' && c <= '9':
			if i == 0 {
				return false
			}
		default:
			return false
		}
	}
	return true
}

// escapeLabelValue writes v with the exposition-format escapes
// (backslash, double-quote, newline).
func escapeLabelValue(sb *strings.Builder, v string) {
	for i := 0; i < len(v); i++ {
		switch c := v[i]; c {
		case '\\':
			sb.WriteString(`\\`)
		case '"':
			sb.WriteString(`\"`)
		case '\n':
			sb.WriteString(`\n`)
		default:
			sb.WriteByte(c)
		}
	}
}

// renderLabels validates and renders a label set to its canonical inner
// form (`k1="v1",k2="v2"`, keys sorted), the series key within a family.
// It panics on invalid or duplicate keys: labels are chosen by code at
// registration time, so a bad one is a programmer error.
func renderLabels(metric string, labels []Label) string {
	if len(labels) == 0 {
		return ""
	}
	sorted := make([]Label, len(labels))
	copy(sorted, labels)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i].Key < sorted[j].Key })
	var sb strings.Builder
	for i, l := range sorted {
		if !validLabelKey(l.Key) {
			panic(fmt.Sprintf("obs: metric %s has invalid label key %q", metric, l.Key))
		}
		if i > 0 {
			if sorted[i-1].Key == l.Key {
				panic(fmt.Sprintf("obs: metric %s repeats label key %q", metric, l.Key))
			}
			sb.WriteByte(',')
		}
		sb.WriteString(l.Key)
		sb.WriteString(`="`)
		escapeLabelValue(&sb, l.Value)
		sb.WriteByte('"')
	}
	return sb.String()
}
