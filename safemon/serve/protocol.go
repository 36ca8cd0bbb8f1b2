// Package serve turns the safemon façade into a long-lived real-time
// monitoring service: an HTTP server that accepts many concurrent
// kinematics streams, scores each frame through the stream's own session
// on the goroutine that serves its stream, and emits verdicts frame by
// frame with bounded latency. Backends are selected per request from the
// safemon registry names the server was configured with; each stream
// opens a new session of its backend's current model and closes it at
// the end; shutdown drains in-flight streams; overload answers with
// explicit backpressure (HTTP 429 at admission,
// per-sid 429 records on a flooded /v1/mux session) instead of unbounded
// buffering.
//
// Wire protocol (POST /v1/stream?backend=NAME, one JSON object per line):
//
//	→ {"labels":[1,2,2,...]}   optional first record: ground-truth gestures
//	→ {"frame":[38 floats]}    one kinematics frame
//	← {"verdict":{"i":0,"g":2,"score":0.13,"unsafe":false}}
//	← {"done":{"frames":812}}  stream end (client closed its side)
//	← {"error":{"code":400,"message":"bad record: ..."}}  terminal error
//
// /v1/stream speaks NDJSON only; a request whose Content-Type is
// application/x-safemon-frames gets a 415 pointing at POST /v1/mux, the
// one binary transport, which carries many logical sessions over one
// connection in the compact record format documented in codec.go.
// Verdict values are exactly equal across both transports, except a score
// with no JSON form (NaN or ±Inf): NDJSON ends the stream with a 500
// error record naming the frame, while /v1/mux carries the exact bits.
package serve

import (
	"bufio"
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"net/http"
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
//
// A frame record of frameSize numbers takes scanFrame's path, which
// decodes the values encoding/json would and stores them in msg.Frame's
// backing array when it has room, so a reused msg decodes frames without
// allocating. Every other line goes to json.Unmarshal.
func DecodeRecord(line []byte, msg *ClientMsg) error {
	var frame safemon.Frame
	if scanFrame(line, &frame) {
		buf := msg.Frame
		if cap(buf) < frameSize {
			buf = make([]float64, frameSize)
		}
		*msg = ClientMsg{Frame: append(buf[:0], frame[:]...)}
		return nil
	}
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

// recordReader decodes NDJSON records line by line under maxRecordBytes.
// Its scanner allocates a 4 KiB line buffer when the stream opens and
// doubles it only for a longer line, up to maxRecordBytes.
type recordReader struct {
	scan *bufio.Scanner
	// decNS is the parse time of the most recent record — just the
	// DecodeRecord call, excluding the network wait for the line — for
	// the decode stage histogram.
	decNS int64
}

func newRecordReader(r io.Reader) *recordReader {
	scan := bufio.NewScanner(r)
	scan.Buffer(nil, maxRecordBytes)
	return &recordReader{scan: scan}
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

// jsonStream is one admitted /v1/stream connection: NDJSON records in
// through the embedded reader, server records out to w. It is the
// connection's pump sink. Verdicts go out through appendVerdictRecord;
// the action, done and error records, at most one per stream or guard
// edge, through the encoder.
type jsonStream struct {
	*recordReader
	w     io.Writer
	enc   *json.Encoder
	out   []byte // the verdict record, reused across frames
	flush func()
}

func newJSONStream(r io.Reader, w io.Writer, flush func()) *jsonStream {
	return &jsonStream{recordReader: newRecordReader(r), w: w, enc: json.NewEncoder(w), flush: flush}
}

func (c *jsonStream) emit(m ServerMsg) {
	if err := c.enc.Encode(m); err != nil {
		return
	}
	c.flush()
}

// verdict writes the frame's action edge and verdict, each with one
// Write, then flushes. A score with no JSON form (NaN or ±Inf) ends the
// stream instead: a 500 error record names the frame, and verdict
// returns false.
func (c *jsonStream) verdict(a *ActionMsg, v *VerdictMsg) bool {
	if math.IsNaN(v.Score) || math.IsInf(v.Score, 0) {
		c.fail(&ErrorMsg{Code: http.StatusInternalServerError,
			Message: fmt.Sprintf("frame %d: score %v has no JSON form; /v1/mux carries it", v.I, v.Score)})
		return false
	}
	if a != nil && c.enc.Encode(ServerMsg{Action: a}) != nil {
		return true
	}
	c.out = appendVerdictRecord(c.out[:0], v)
	if _, err := c.w.Write(c.out); err == nil {
		c.flush()
	}
	return true
}

func (c *jsonStream) done(frames int)  { c.emit(ServerMsg{Done: &DoneMsg{Frames: frames}}) }
func (c *jsonStream) fail(e *ErrorMsg) { c.emit(ServerMsg{Error: e}) }
