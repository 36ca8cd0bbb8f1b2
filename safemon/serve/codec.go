package serve

// Binary wire codec: the compact length-prefixed record format that POST
// /v1/mux speaks (media type application/x-safemon-frames). NDJSON on
// /v1/stream stays the always-works default; the binary codec exists
// because per-frame JSON encode/decode had come to cost more than many
// backends' inference.
//
// Every record is little-endian with a fixed 9-byte header:
//
//	off size field
//	0   1    type  (Bin* constant)
//	1   4    sid   u32 logical session id
//	5   4    len   u32 payload length in bytes (<= 1 MiB)
//	9   len  payload
//
// Payloads by type (type 2 is reserved and decodes as unknown):
//
//	BinFrame   304B  38 x float64 kinematics values         (c->s)
//	BinVerdict 21B   i int64 @0 | g int32 @8 | score float64 @12 | unsafe u8 @20
//	BinAction  26+B  i int64 @0 | alert_frame int64 @8 | score float64 @16 |
//	                 level u8 @24 (a guard.Action) | policy_len u8 @25 |
//	                 policy bytes @26
//	BinDone    8B    frames uint64
//	BinError   4+B   code uint32 @0 | message bytes @4
//	BinOpen    4+B   backend_len u16 @0 | backend | policy_len u16 | policy |
//	                 n x int32 labels (rest of payload)     (c->s)
//	BinOpened  0+B   model version bytes                    (s->c)
//	BinClose   0B    half-close: no more frames for the sid (c->s)
//
// The codec is allocation-free for the hot records (frame, verdict) in
// both directions once a connection's buffers are warm; the cold records
// (open, error, action) may allocate for their variable parts.
// DecodeBinaryRecord never panics on malformed input — the property
// FuzzDecodeBinaryRecord pins — and distinguishes framing errors (the
// stream cannot continue) from payload errors (the record is framed
// correctly but its contents are invalid, so a multiplexed connection can
// fail just the offending session with a per-sid 400 record).

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math"
	"time"

	"repro/safemon"
	"repro/safemon/guard"
)

// BinaryContentType is the media type of the binary codec: POST /v1/mux
// requires it as the Content-Type, and POST /v1/stream refuses it with a
// 415 that points at /v1/mux.
const BinaryContentType = "application/x-safemon-frames"

// Binary record types (the u8 type field of every record header).
const (
	// BinFrame carries one 38-variable kinematics frame (client->server).
	BinFrame byte = iota + 1
	// binReserved (2) is reserved: no record uses it, so the later types
	// keep their wire numbers. It decodes as an unknown type.
	binReserved
	// BinVerdict carries one frame verdict (server->client).
	BinVerdict
	// BinAction carries one guard mitigation edge (server->client,
	// guarded streams only, immediately before the verdict it precedes).
	BinAction
	// BinDone terminates a healthy stream (server->client).
	BinDone
	// BinError terminates a failed stream — or, on a multiplexed
	// connection, just the session its sid names (server->client).
	BinError
	// BinOpen opens a logical session on a multiplexed connection
	// (client->server): backend, optional policy, optional labels.
	BinOpen
	// BinOpened acknowledges a BinOpen with the bound model version
	// (server->client).
	BinOpened
	// BinClose half-closes a multiplexed session: no more frames will
	// arrive for the sid, and the server answers with its BinDone
	// (client->server).
	BinClose
	// binMaxType bounds the valid type range for validation.
	binMaxType = BinClose
)

const (
	binHeaderSize     = 9
	binFramePayload   = frameSize * 8
	binVerdictPayload = 21
	binDonePayload    = 8
	binActionMin      = 26
)

// Codec errors. errBadPayload-wrapped errors mean the record was framed
// correctly but its payload is invalid — recoverable per session on a
// multiplexed connection; everything else is a framing error that
// poisons the byte stream.
var (
	errBadPayload     = errors.New("serve: malformed record payload")
	errNonFiniteFrame = fmt.Errorf("%w: non-finite frame value (NaN or ±Inf)", errBadPayload)
	errShortRecord    = errors.New("serve: truncated binary record")
)

// BinaryRecord is the decoded form of one binary wire record. Exactly
// the fields implied by Type are meaningful; the struct is designed for
// reuse (DecodeBinaryRecord overwrites it) so the hot record types
// decode without allocating.
type BinaryRecord struct {
	Type byte
	// SID is the logical session id.
	SID uint32

	// Frame is the kinematics sample of a BinFrame record.
	Frame safemon.Frame
	// Verdict is the verdict of a BinVerdict record.
	Verdict VerdictMsg
	// Action is the mitigation edge of a BinAction record.
	Action ActionMsg
	// Labels are the ground-truth labels of a BinOpen record (the
	// backing array is reused across decodes into the same record).
	Labels []int
	// Frames is the verdict count of a BinDone record.
	Frames uint64
	// Code and Message form a BinError record.
	Code    uint32
	Message string
	// Backend and Policy name the session of a BinOpen record.
	Backend string
	Policy  string
	// Version is the bound model version of a BinOpened record.
	Version string
}

// binTypeName names a record type for error messages.
func binTypeName(typ byte) string {
	switch typ {
	case BinFrame:
		return "frame"
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

func appendBinHeader(dst []byte, typ byte, sid uint32, payloadLen int) []byte {
	dst = append(dst, typ)
	dst = binary.LittleEndian.AppendUint32(dst, sid)
	return binary.LittleEndian.AppendUint32(dst, uint32(payloadLen))
}

// AppendBinaryRecord encodes rec onto dst and returns the extended
// slice. It is the single encoder for every record type; per-connection
// writers reuse their dst buffer so warm encoding never allocates.
func AppendBinaryRecord(dst []byte, rec *BinaryRecord) ([]byte, error) {
	switch rec.Type {
	case BinFrame:
		dst = appendBinHeader(dst, BinFrame, rec.SID, binFramePayload)
		for _, v := range rec.Frame {
			dst = binary.LittleEndian.AppendUint64(dst, math.Float64bits(v))
		}
	case BinVerdict:
		dst = appendBinHeader(dst, BinVerdict, rec.SID, binVerdictPayload)
		dst = binary.LittleEndian.AppendUint64(dst, uint64(int64(rec.Verdict.I)))
		dst = binary.LittleEndian.AppendUint32(dst, uint32(int32(rec.Verdict.G)))
		dst = binary.LittleEndian.AppendUint64(dst, math.Float64bits(rec.Verdict.Score))
		if rec.Verdict.Unsafe {
			dst = append(dst, 1)
		} else {
			dst = append(dst, 0)
		}
	case BinAction:
		lv, err := guard.ParseAction(rec.Action.Level)
		if err != nil {
			return dst, fmt.Errorf("serve: unknown action level %q", rec.Action.Level)
		}
		if len(rec.Action.Policy) > 255 {
			return dst, fmt.Errorf("serve: action policy name over 255 bytes")
		}
		dst = appendBinHeader(dst, BinAction, rec.SID, binActionMin+len(rec.Action.Policy))
		dst = binary.LittleEndian.AppendUint64(dst, uint64(int64(rec.Action.I)))
		dst = binary.LittleEndian.AppendUint64(dst, uint64(int64(rec.Action.AlertFrame)))
		dst = binary.LittleEndian.AppendUint64(dst, math.Float64bits(rec.Action.Score))
		dst = append(dst, byte(lv), byte(len(rec.Action.Policy)))
		dst = append(dst, rec.Action.Policy...)
	case BinDone:
		dst = appendBinHeader(dst, BinDone, rec.SID, binDonePayload)
		dst = binary.LittleEndian.AppendUint64(dst, rec.Frames)
	case BinError:
		if 4+len(rec.Message) > maxRecordBytes {
			return dst, errRecordTooLarge
		}
		dst = appendBinHeader(dst, BinError, rec.SID, 4+len(rec.Message))
		dst = binary.LittleEndian.AppendUint32(dst, rec.Code)
		dst = append(dst, rec.Message...)
	case BinOpen:
		if len(rec.Backend) > 0xffff || len(rec.Policy) > 0xffff {
			return dst, fmt.Errorf("serve: open name over 65535 bytes")
		}
		n := 4 + len(rec.Backend) + len(rec.Policy) + 4*len(rec.Labels)
		if n > maxRecordBytes {
			return dst, errRecordTooLarge
		}
		dst = appendBinHeader(dst, BinOpen, rec.SID, n)
		dst = binary.LittleEndian.AppendUint16(dst, uint16(len(rec.Backend)))
		dst = append(dst, rec.Backend...)
		dst = binary.LittleEndian.AppendUint16(dst, uint16(len(rec.Policy)))
		dst = append(dst, rec.Policy...)
		for _, l := range rec.Labels {
			dst = binary.LittleEndian.AppendUint32(dst, uint32(int32(l)))
		}
	case BinOpened:
		if len(rec.Version) > maxRecordBytes {
			return dst, errRecordTooLarge
		}
		dst = appendBinHeader(dst, BinOpened, rec.SID, len(rec.Version))
		dst = append(dst, rec.Version...)
	case BinClose:
		dst = appendBinHeader(dst, BinClose, rec.SID, 0)
	default:
		return dst, fmt.Errorf("serve: unknown binary record type %d", rec.Type)
	}
	return dst, nil
}

// DecodeBinaryRecord decodes one record from the front of b into rec,
// overwriting any previous contents, and returns the number of bytes
// consumed. It never panics on malformed input. Errors wrapping
// errBadPayload leave rec.Type and rec.SID valid (the framing was
// intact); every other error means the byte stream itself is broken.
func DecodeBinaryRecord(b []byte, rec *BinaryRecord) (int, error) {
	*rec = BinaryRecord{Labels: rec.Labels[:0]}
	if len(b) < binHeaderSize {
		return 0, errShortRecord
	}
	typ := b[0]
	sid := binary.LittleEndian.Uint32(b[1:5])
	plen := binary.LittleEndian.Uint32(b[5:9])
	if plen > maxRecordBytes {
		return 0, errRecordTooLarge
	}
	if len(b) < binHeaderSize+int(plen) {
		return 0, errShortRecord
	}
	if typ == 0 || typ == binReserved || typ > binMaxType {
		return 0, fmt.Errorf("serve: unknown binary record type %d", typ)
	}
	rec.Type, rec.SID = typ, sid
	n := binHeaderSize + int(plen)
	p := b[binHeaderSize:n]
	switch typ {
	case BinFrame:
		if len(p) != binFramePayload {
			return n, fmt.Errorf("%w: frame payload %d bytes, want %d", errBadPayload, len(p), binFramePayload)
		}
		for i := range rec.Frame {
			v := math.Float64frombits(binary.LittleEndian.Uint64(p[8*i:]))
			if math.IsNaN(v) || math.IsInf(v, 0) {
				return n, errNonFiniteFrame
			}
			rec.Frame[i] = v
		}
	case BinVerdict:
		if len(p) != binVerdictPayload {
			return n, fmt.Errorf("%w: verdict payload %d bytes, want %d", errBadPayload, len(p), binVerdictPayload)
		}
		if p[20] > 1 {
			return n, fmt.Errorf("%w: verdict unsafe byte %d", errBadPayload, p[20])
		}
		rec.Verdict = VerdictMsg{
			I:      int(int64(binary.LittleEndian.Uint64(p[0:]))),
			G:      int(int32(binary.LittleEndian.Uint32(p[8:]))),
			Score:  math.Float64frombits(binary.LittleEndian.Uint64(p[12:])),
			Unsafe: p[20] == 1,
		}
	case BinAction:
		if len(p) < binActionMin {
			return n, fmt.Errorf("%w: action payload %d bytes, want >= %d", errBadPayload, len(p), binActionMin)
		}
		lv := guard.Action(p[24])
		if lv > guard.ActionRetract {
			return n, fmt.Errorf("%w: unknown action level byte %d", errBadPayload, p[24])
		}
		if int(p[25]) != len(p)-binActionMin {
			return n, fmt.Errorf("%w: action policy length %d for %d payload bytes", errBadPayload, p[25], len(p))
		}
		rec.Action = ActionMsg{
			I:          int(int64(binary.LittleEndian.Uint64(p[0:]))),
			AlertFrame: int(int64(binary.LittleEndian.Uint64(p[8:]))),
			Score:      math.Float64frombits(binary.LittleEndian.Uint64(p[16:])),
			Level:      lv.String(),
			Policy:     string(p[binActionMin:]),
		}
	case BinDone:
		if len(p) != binDonePayload {
			return n, fmt.Errorf("%w: done payload %d bytes, want %d", errBadPayload, len(p), binDonePayload)
		}
		rec.Frames = binary.LittleEndian.Uint64(p)
	case BinError:
		if len(p) < 4 {
			return n, fmt.Errorf("%w: error payload %d bytes, want >= 4", errBadPayload, len(p))
		}
		rec.Code = binary.LittleEndian.Uint32(p)
		rec.Message = string(p[4:])
	case BinOpen:
		if len(p) < 2 {
			return n, fmt.Errorf("%w: open payload %d bytes, want >= 2", errBadPayload, len(p))
		}
		bl := int(binary.LittleEndian.Uint16(p))
		if len(p) < 2+bl+2 {
			return n, fmt.Errorf("%w: open backend length %d overruns payload", errBadPayload, bl)
		}
		rec.Backend = string(p[2 : 2+bl])
		pl := int(binary.LittleEndian.Uint16(p[2+bl:]))
		rest := p[4+bl:]
		if len(rest) < pl {
			return n, fmt.Errorf("%w: open policy length %d overruns payload", errBadPayload, pl)
		}
		rec.Policy = string(rest[:pl])
		labels := rest[pl:]
		if len(labels)%4 != 0 {
			return n, fmt.Errorf("%w: open labels %d bytes, want a multiple of 4", errBadPayload, len(labels))
		}
		for i := 0; i < len(labels); i += 4 {
			rec.Labels = append(rec.Labels, int(int32(binary.LittleEndian.Uint32(labels[i:]))))
		}
	case BinOpened:
		rec.Version = string(p)
	case BinClose:
		if len(p) != 0 {
			return n, fmt.Errorf("%w: close payload %d bytes, want 0", errBadPayload, len(p))
		}
	}
	return n, nil
}

// binWriter encodes records onto an io.Writer through one reusable
// buffer: warm frame/verdict writes are a single Write with zero
// allocations.
type binWriter struct {
	w   io.Writer
	buf []byte
	rec BinaryRecord // encode scratch for the typed helpers
}

func newBinWriter(w io.Writer) *binWriter {
	return &binWriter{w: w, buf: make([]byte, 0, binHeaderSize+binFramePayload)}
}

func (bw *binWriter) emit(rec *BinaryRecord) error {
	b, err := AppendBinaryRecord(bw.buf[:0], rec)
	if err != nil {
		return err
	}
	bw.buf = b[:0]
	_, err = bw.w.Write(b)
	return err
}

func (bw *binWriter) writeFrame(sid uint32, f *safemon.Frame) error {
	bw.rec = BinaryRecord{Type: BinFrame, SID: sid, Frame: *f}
	return bw.emit(&bw.rec)
}

func (bw *binWriter) writeVerdict(sid uint32, v *VerdictMsg) error {
	bw.rec = BinaryRecord{Type: BinVerdict, SID: sid, Verdict: *v}
	return bw.emit(&bw.rec)
}

// binReaderBufSize is a binary reader's bufio read-buffer size: a few
// frames deep, far under the NDJSON scanner's per-line buffer because
// binary records need no line scanning.
const binReaderBufSize = 8 << 10

// binReader decodes binary records from a stream. Its buffers, about
// 8 KiB, are allocated once per connection; hot records then decode with
// zero allocations: the payload is staged in a reusable scratch buffer
// and decoded into a reusable BinaryRecord.
type binReader struct {
	br      *bufio.Reader
	scratch []byte
	rec     BinaryRecord
	// lastSID is the sid of the most recently framed record, valid even
	// when its payload failed to decode (errBadPayload errors) — the mux
	// handler uses it to fail just the offending session.
	lastSID uint32
	// decNS is the parse time of the most recent record — just the
	// DecodeBinaryRecord call, excluding the network reads — for the
	// decode stage histogram.
	decNS int64
}

func newBinReader(r io.Reader) *binReader {
	return &binReader{
		br:      bufio.NewReaderSize(r, binReaderBufSize),
		scratch: make([]byte, binHeaderSize+binFramePayload),
	}
}

// next reads and decodes the next record. io.EOF means a clean end at a
// record boundary; io.ErrUnexpectedEOF a mid-record hangup. Payload
// errors (errBadPayload) leave the stream aligned on the next record.
func (d *binReader) next() (*BinaryRecord, error) {
	hdr := d.scratch[:binHeaderSize]
	if _, err := io.ReadFull(d.br, hdr); err != nil {
		return nil, err // io.EOF at a boundary, ErrUnexpectedEOF inside
	}
	plen := binary.LittleEndian.Uint32(hdr[5:9])
	if plen > maxRecordBytes {
		return nil, errRecordTooLarge
	}
	d.lastSID = binary.LittleEndian.Uint32(hdr[1:5])
	total := binHeaderSize + int(plen)
	if cap(d.scratch) < total {
		grown := make([]byte, total)
		copy(grown, hdr)
		d.scratch = grown
	}
	d.scratch = d.scratch[:cap(d.scratch)]
	if _, err := io.ReadFull(d.br, d.scratch[binHeaderSize:total]); err != nil {
		if errors.Is(err, io.EOF) {
			err = io.ErrUnexpectedEOF
		}
		return nil, err
	}
	start := time.Now()
	_, err := DecodeBinaryRecord(d.scratch[:total], &d.rec)
	d.decNS = time.Since(start).Nanoseconds()
	if err != nil {
		return &d.rec, err
	}
	return &d.rec, nil
}
