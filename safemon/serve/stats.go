package serve

import (
	"math"
	"sync/atomic"
	"time"

	"repro/safemon/ledger"
	"repro/safemon/obs"
)

// histBuckets is the number of power-of-two latency buckets: bucket i
// counts latencies in [2^i, 2^(i+1)) nanoseconds, covering sub-microsecond
// pushes up to multi-second stalls. The layout is obs.Histogram's, so the
// same bucket array backs both the /stats quantiles and the /metrics
// exposition — the two surfaces cannot drift.
const histBuckets = obs.LogBuckets

// quantileOf returns the q-th (0..1) latency quantile of a bucket-count
// snapshot in milliseconds; NaN when empty. The interpolation itself —
// half-sample midpoint, log-linear within the bucket — is
// obs.LogQuantileNS, the single shared implementation.
func quantileOf(counts [histBuckets]uint64, q float64) float64 {
	return obs.LogQuantileNS(counts[:], q) / 1e6
}

// shardStats aggregates one shard's counters. All fields are atomics: the
// shard goroutine and stream handlers write, /stats reads.
type shardStats struct {
	frames         atomic.Uint64 // frames pushed through sessions
	sessionsOpened atomic.Uint64 // streams admitted to this shard
	sessionsActive atomic.Int64  // streams currently attached
	sessionsClosed atomic.Uint64 // streams released (opened - closed = active)
	queueFull      atomic.Uint64 // submits rejected by backpressure
	// latency is the submit-to-verdict histogram (queue + push). It is a
	// registry-owned obs.Histogram so /metrics renders the exact bucket
	// array the /stats quantiles are computed from.
	latency *obs.Histogram
}

// ShardSnapshot is one shard's row in the /stats report.
type ShardSnapshot struct {
	Shard          int     `json:"shard"`
	Frames         uint64  `json:"frames"`
	SessionsOpened uint64  `json:"sessions_opened"`
	SessionsActive int64   `json:"sessions_active"`
	QueueFull      uint64  `json:"queue_full"`
	ThroughputFPS  float64 `json:"throughput_fps"`
	P50LatencyMS   float64 `json:"p50_latency_ms"`
	P99LatencyMS   float64 `json:"p99_latency_ms"`
}

// codecCounters tracks which wire codecs the service's streams have
// negotiated. Stream handlers increment at admission; /stats readers
// snapshot concurrently.
type codecCounters struct {
	jsonStreams   atomic.Uint64 // NDJSON /v1/stream connections admitted
	binaryStreams atomic.Uint64 // binary /v1/stream connections admitted
	muxConns      atomic.Uint64 // /v1/mux connections admitted
	muxSessions   atomic.Uint64 // logical sessions opened over mux conns
}

// CodecSnapshot is the /stats codec section: how streams reached the
// service, by transport.
type CodecSnapshot struct {
	// JSONStreams counts NDJSON /v1/stream connections admitted.
	JSONStreams uint64 `json:"json_streams"`
	// BinaryStreams counts binary-codec /v1/stream connections admitted.
	BinaryStreams uint64 `json:"binary_streams"`
	// MuxConns counts multiplexed binary connections admitted.
	MuxConns uint64 `json:"mux_conns"`
	// MuxSessions counts logical sessions opened over those connections.
	MuxSessions uint64 `json:"mux_sessions"`
}

// snapshot renders the counters.
func (c *codecCounters) snapshot() CodecSnapshot {
	return CodecSnapshot{
		JSONStreams:   c.jsonStreams.Load(),
		BinaryStreams: c.binaryStreams.Load(),
		MuxConns:      c.muxConns.Load(),
		MuxSessions:   c.muxSessions.Load(),
	}
}

// StatsSnapshot is the /stats payload: aggregate service counters, the
// guard mitigation counters, and the per-shard breakdown.
type StatsSnapshot struct {
	UptimeSeconds  float64            `json:"uptime_seconds"`
	Backends       []string           `json:"backends"`
	Shards         int                `json:"shards"`
	Frames         uint64             `json:"frames"`
	SessionsOpened uint64             `json:"sessions_opened"`
	SessionsActive int64              `json:"sessions_active"`
	QueueFull      uint64             `json:"queue_full"`
	ThroughputFPS  float64            `json:"throughput_fps"`
	P50LatencyMS   float64            `json:"p50_latency_ms"`
	P99LatencyMS   float64            `json:"p99_latency_ms"`
	Codec          CodecSnapshot      `json:"codec"`
	Mitigation     MitigationSnapshot `json:"mitigation"`
	// Ledger is the event-ledger appender's counters; omitted entirely
	// when the server runs without a ledger, so ledger-less payloads
	// keep their pre-ledger shape.
	Ledger   *ledger.Snapshot `json:"ledger,omitempty"`
	PerShard []ShardSnapshot  `json:"per_shard"`
}

// snapshot renders the manager's counters. Quantile fields are NaN-free
// (-1 when no frames have been observed) so the payload stays valid JSON.
func (m *Manager) snapshot(backends []string, uptime time.Duration) StatsSnapshot {
	secs := uptime.Seconds()
	snap := StatsSnapshot{
		UptimeSeconds: secs,
		Backends:      backends,
		Shards:        len(m.shards),
	}
	var merged [histBuckets]uint64
	for i := range m.shards {
		st := &m.shards[i].stats
		frames := st.frames.Load()
		counts := st.latency.Counts()
		row := ShardSnapshot{
			Shard:          i,
			Frames:         frames,
			SessionsOpened: st.sessionsOpened.Load(),
			SessionsActive: st.sessionsActive.Load(),
			QueueFull:      st.queueFull.Load(),
			P50LatencyMS:   jsonQuantile(counts, 0.50),
			P99LatencyMS:   jsonQuantile(counts, 0.99),
		}
		if secs > 0 {
			row.ThroughputFPS = float64(frames) / secs
		}
		snap.PerShard = append(snap.PerShard, row)
		snap.Frames += frames
		snap.SessionsOpened += row.SessionsOpened
		snap.SessionsActive += row.SessionsActive
		snap.QueueFull += row.QueueFull
		for b, c := range counts {
			merged[b] += c
		}
	}
	if secs > 0 {
		snap.ThroughputFPS = float64(snap.Frames) / secs
	}
	snap.P50LatencyMS = jsonQuantile(merged, 0.50)
	snap.P99LatencyMS = jsonQuantile(merged, 0.99)
	return snap
}

// jsonQuantile maps an empty histogram's NaN to -1 (JSON has no NaN).
func jsonQuantile(counts [histBuckets]uint64, q float64) float64 {
	v := quantileOf(counts, q)
	if math.IsNaN(v) {
		return -1
	}
	return v
}
