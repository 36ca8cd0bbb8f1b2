// Package serve turns the safemon façade into a long-lived real-time
// monitoring service: an HTTP server that accepts many concurrent NDJSON
// kinematics streams, routes each one through a sharded session manager
// (one owning goroutine per shard, bounded mailboxes), and emits verdicts
// frame by frame with bounded latency. Backends are selected per request
// from the safemon registry names the server was configured with; sessions
// come from warm safemon.SessionPools; shutdown drains in-flight streams;
// overload answers with explicit backpressure (HTTP 429 at admission,
// queue-full records mid-stream) instead of unbounded buffering.
//
// Wire protocol (POST /v1/stream?backend=NAME, one JSON object per line):
//
//	→ {"labels":[1,2,2,...]}   optional first record: ground-truth gestures
//	→ {"frame":[38 floats]}    one kinematics frame
//	← {"verdict":{"i":0,"g":2,"score":0.13,"unsafe":false}}
//	← {"done":{"frames":812}}  stream end (client closed its side)
//	← {"error":{"code":429,"message":"queue full"}}  terminal error
//
// NDJSON is the default codec. A request whose Content-Type (or Accept)
// is application/x-safemon-frames switches the whole stream to the
// compact binary record format documented in codec.go, and POST /v1/mux
// multiplexes many logical sessions over one binary connection; verdict
// values are exactly equal across all transports.
package serve

import (
	"bufio"
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"sync"
	"time"

	"repro/safemon"
)

// frameSize is the wire length of one kinematics frame.
const frameSize = len(safemon.Frame{})

// ClientMsg is one request NDJSON record: either a labels header (first
// record only) or a frame.
type ClientMsg struct {
	// Labels supplies per-frame ground-truth gesture labels for the whole
	// stream. Only the first record may carry them; a later record with
	// labels ends the stream with a 400.
	Labels []int `json:"labels,omitempty"`
	// Frame is one 38-variable kinematics sample.
	Frame []float64 `json:"frame,omitempty"`
}

// VerdictMsg is the wire form of one safemon.FrameVerdict. Field order and
// names are part of the golden contract: the offline Runner path marshaled
// through this type must be byte-identical to the served stream.
type VerdictMsg struct {
	I      int     `json:"i"`
	G      int     `json:"g"`
	Score  float64 `json:"score"`
	Unsafe bool    `json:"unsafe"`
}

// WireVerdict converts a FrameVerdict to its wire form.
func WireVerdict(v safemon.FrameVerdict) VerdictMsg {
	return VerdictMsg{I: v.FrameIndex, G: v.Gesture, Score: v.Score, Unsafe: v.Unsafe}
}

// Verdict converts the wire form back to a FrameVerdict.
func (m VerdictMsg) Verdict() safemon.FrameVerdict {
	return safemon.FrameVerdict{FrameIndex: m.I, Gesture: m.G, Score: m.Score, Unsafe: m.Unsafe}
}

// ActionMsg is one guard mitigation edge interleaved into a guarded
// stream (?policy=NAME): the engine's level changed on frame I. It is
// emitted immediately before the frame's verdict record, so a lockstep
// client sees the action no later than the verdict that caused it.
type ActionMsg struct {
	// I is the frame index whose verdict produced the edge.
	I int `json:"i"`
	// Level is the mitigation level now in force (guard.Action wire name:
	// "none" on release, "warn", "pause", "safe-stop", "retract").
	Level string `json:"level"`
	// AlertFrame is the first confirmed-alert frame of the active
	// episode, -1 on release.
	AlertFrame int `json:"alert_frame"`
	// Score is the verdict score that produced the edge.
	Score float64 `json:"score"`
	// Policy names the policy the stream runs.
	Policy string `json:"policy,omitempty"`
}

// DoneMsg terminates a healthy stream.
type DoneMsg struct {
	// Frames is the number of verdicts emitted.
	Frames int `json:"frames"`
}

// ErrorMsg terminates a failed stream.
type ErrorMsg struct {
	// Code follows HTTP semantics (429 = backpressure, 400 = bad record,
	// 503 = draining).
	Code    int    `json:"code"`
	Message string `json:"message"`
}

// Error implements the error interface so client code can surface server
// records directly.
func (e *ErrorMsg) Error() string {
	return fmt.Sprintf("safemond: %s (code %d)", e.Message, e.Code)
}

// ServerMsg is one response NDJSON record; exactly one field is set.
// Action records appear only on guarded streams, so unguarded streams
// remain byte-identical to the pre-guard wire format.
type ServerMsg struct {
	Verdict *VerdictMsg `json:"verdict,omitempty"`
	Action  *ActionMsg  `json:"action,omitempty"`
	Done    *DoneMsg    `json:"done,omitempty"`
	Error   *ErrorMsg   `json:"error,omitempty"`
}

// maxRecordBytes caps one NDJSON request record: generous for a labels
// header of a very long trajectory (~7 bytes per label) and two orders of
// magnitude above a frame record, but it stops a single line from
// buffering the server into the ground.
const maxRecordBytes = 1 << 20

// errRecordTooLarge reports a request line over the per-record cap.
var errRecordTooLarge = fmt.Errorf("serve: record exceeds %d bytes", maxRecordBytes)

// DecodeRecord parses one NDJSON request line (without its newline) into
// msg, overwriting any previous contents. Surrounding whitespace is
// ignored. It never panics on malformed input — the property the fuzz
// harness pins — and returns the json error for anything that is not a
// single valid ClientMsg object. Non-finite frame values are rejected
// here, at decode time, exactly as the binary codec rejects them:
// standard JSON cannot spell NaN or ±Inf, but a decoder must not rely on
// its input being standard, and nothing non-finite may reach a backend's
// scorers.
func DecodeRecord(line []byte, msg *ClientMsg) error {
	*msg = ClientMsg{}
	if err := json.Unmarshal(line, msg); err != nil {
		return err
	}
	for _, v := range msg.Frame {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return errNonFiniteFrame
		}
	}
	return nil
}

// scanBufPool recycles the per-connection NDJSON scan buffers: 64 KiB
// per stream is real money at high connection churn, and the buffer's
// lifetime is exactly the handler's, so pooling is safe. A line that
// outgrows the pooled buffer makes the Scanner allocate internally (up
// to maxRecordBytes) and abandon the pooled one, which then simply
// returns to the pool at release.
var scanBufPool = sync.Pool{
	New: func() any {
		b := make([]byte, 64<<10)
		return &b
	},
}

// recordReader decodes NDJSON records line by line under maxRecordBytes.
type recordReader struct {
	scan *bufio.Scanner
	buf  *[]byte // pooled scan buffer, returned by release
	// decNS is the parse time of the most recent record — just the
	// DecodeRecord call, excluding the network wait for the line — for
	// the decode stage histogram.
	decNS int64
}

func newRecordReader(r io.Reader) *recordReader {
	scan := bufio.NewScanner(r)
	buf := scanBufPool.Get().(*[]byte)
	scan.Buffer(*buf, maxRecordBytes)
	return &recordReader{scan: scan, buf: buf}
}

// release returns the pooled scan buffer. The reader must not be used
// afterwards.
func (d *recordReader) release() {
	if d.buf != nil {
		scanBufPool.Put(d.buf)
		d.buf = nil
		d.scan = nil
	}
}

// next decodes the next non-empty line into msg; io.EOF at clean stream
// end, the underlying read error otherwise.
func (d *recordReader) next(msg *ClientMsg) error {
	for d.scan.Scan() {
		line := bytes.TrimSpace(d.scan.Bytes())
		if len(line) == 0 {
			continue
		}
		start := time.Now()
		err := DecodeRecord(line, msg)
		d.decNS = time.Since(start).Nanoseconds()
		return err
	}
	if err := d.scan.Err(); err != nil {
		if errors.Is(err, bufio.ErrTooLong) {
			return errRecordTooLarge
		}
		return err
	}
	return io.EOF
}

// TraceFromVerdicts rebuilds an offline-shaped trace from streamed
// verdicts, with Alerts derived exactly as the session replay derives them
// (one alert per unsafe verdict). It lets served streams feed the same
// EvaluateTraces aggregation as the batch Runner.
func TraceFromVerdicts(verdicts []safemon.FrameVerdict) *safemon.Trace {
	trace := &safemon.Trace{Verdicts: verdicts}
	for _, v := range verdicts {
		if v.Unsafe {
			trace.Alerts = append(trace.Alerts, safemon.Alert{FrameIndex: v.FrameIndex, Gesture: v.Gesture, Score: v.Score})
		}
	}
	return trace
}
