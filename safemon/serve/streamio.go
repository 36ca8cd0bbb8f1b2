package serve

import (
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"strings"
)

// streamConn abstracts one admitted /v1/stream connection's codec so the
// handler loop is written once: NDJSON (the default) and the binary
// record format behind it carry exactly the same records in the same
// order, so verdict values are equal across codecs by construction. The
// write side is the pump's sink.
type streamConn interface {
	sink
	// next decodes the next client record (labels header or frame).
	next(msg *ClientMsg) error
	// decodeNS reports the parse time of the most recent next — just
	// the record decode, excluding the network wait — for the decode
	// stage histogram.
	decodeNS() int64
	// release returns pooled buffers; the conn must not be used after.
	release()
}

// jsonStream is the NDJSON codec: one JSON object per line each way.
type jsonStream struct {
	dec   *recordReader
	enc   *json.Encoder
	flush func()
}

func newJSONStream(r io.Reader, w io.Writer, flush func()) *jsonStream {
	return &jsonStream{dec: newRecordReader(r), enc: json.NewEncoder(w), flush: flush}
}

func (c *jsonStream) next(msg *ClientMsg) error { return c.dec.next(msg) }
func (c *jsonStream) decodeNS() int64           { return c.dec.decNS }

func (c *jsonStream) emit(m ServerMsg) {
	if err := c.enc.Encode(m); err != nil {
		return
	}
	c.flush()
}

func (c *jsonStream) verdict(a *ActionMsg, v *VerdictMsg) {
	if a != nil && c.enc.Encode(ServerMsg{Action: a}) != nil {
		return
	}
	c.emit(ServerMsg{Verdict: v})
}

func (c *jsonStream) done(frames int)  { c.emit(ServerMsg{Done: &DoneMsg{Frames: frames}}) }
func (c *jsonStream) fail(e *ErrorMsg) { c.emit(ServerMsg{Error: e}) }
func (c *jsonStream) release()         { c.dec.release() }

// binStream is the binary codec on a single-session stream: the sid-0
// user of the record writer /v1/mux sessions share, so the warm
// frame→verdict round trip allocates nothing on either side.
type binStream struct {
	r *binReader
	w muxWriter
}

func newBinStream(r io.Reader, w io.Writer, flush func()) *binStream {
	return &binStream{r: newBinReader(r), w: muxWriter{w: newBinWriter(w), flush: flush}}
}

func (c *binStream) next(msg *ClientMsg) error {
	rec, err := c.r.next()
	if err != nil {
		return err
	}
	switch rec.Type {
	case BinFrame:
		msg.Labels = nil
		msg.Frame = rec.Frame[:]
		return nil
	case BinLabels:
		// Copied out: the decoder's slice is clobbered by the next
		// record, while the session retains the labels for its lifetime.
		msg.Frame = nil
		msg.Labels = append([]int{}, rec.Labels...)
		return nil
	default:
		return fmt.Errorf("unexpected %s record on a stream connection", binTypeName(rec.Type))
	}
}

func (c *binStream) decodeNS() int64                     { return c.r.decNS }
func (c *binStream) verdict(a *ActionMsg, v *VerdictMsg) { c.w.verdict(0, a, v) }
func (c *binStream) done(frames int)                     { c.w.done(0, frames) }
func (c *binStream) fail(e *ErrorMsg)                    { c.w.error(0, e) }
func (c *binStream) release()                            { c.r.release() }

// binTypeName names a record type for error messages.
func binTypeName(typ byte) string {
	switch typ {
	case BinFrame:
		return "frame"
	case BinLabels:
		return "labels"
	case BinVerdict:
		return "verdict"
	case BinAction:
		return "action"
	case BinDone:
		return "done"
	case BinError:
		return "error"
	case BinOpen:
		return "open"
	case BinOpened:
		return "opened"
	case BinClose:
		return "close"
	}
	return fmt.Sprintf("type-%d", typ)
}

// wantsBinary reports whether the request negotiates the binary codec:
// either its Content-Type (the request body's codec) or its Accept
// header names application/x-safemon-frames. A stream always runs one
// codec in both directions.
func wantsBinary(r *http.Request) bool {
	return hasMediaType(r.Header.Get("Content-Type"), BinaryContentType) ||
		hasMediaType(r.Header.Get("Accept"), BinaryContentType)
}

// hasMediaType reports whether a comma-separated media-type header lists
// want, ignoring parameters and case.
func hasMediaType(header, want string) bool {
	for _, part := range strings.Split(header, ",") {
		if i := strings.IndexByte(part, ';'); i >= 0 {
			part = part[:i]
		}
		if strings.EqualFold(strings.TrimSpace(part), want) {
			return true
		}
	}
	return false
}
