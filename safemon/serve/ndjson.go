package serve

// The byte form of the two hot NDJSON records, the client's frame record
// and the server's verdict record, for both ends of /v1/stream. The
// appenders write exactly the bytes json.Encoder writes for ClientMsg
// and ServerMsg, and the scanners accept only lines that encoding/json
// would decode to the same values, parsing every number with the same
// strconv call. A line a scanner declines goes to json.Unmarshal, so
// every valid record still parses, with encoding/json's result and error
// text. Neither side allocates per record.

import (
	"encoding/json"
	"math"
	"reflect"
	"strconv"

	"repro/safemon"
)

// appendFloat appends f as encoding/json writes a float64: the shortest
// 'f' form, or 'e' below 1e-6 and from 1e21 up, with a one-digit
// negative exponent unpadded (e-9, not e-09). f must be finite.
func appendFloat(b []byte, f float64) []byte {
	format := byte('f')
	if abs := math.Abs(f); abs != 0 && (abs < 1e-6 || abs >= 1e21) {
		format = 'e'
	}
	b = strconv.AppendFloat(b, f, format, -1, 64)
	if format == 'e' {
		if n := len(b); n >= 4 && b[n-4] == 'e' && b[n-3] == '-' && b[n-2] == '0' {
			b[n-2] = b[n-1]
			b = b[:n-1]
		}
	}
	return b
}

// appendFrameRecord appends frame's request record and its newline to b.
// A NaN or ±Inf value has no JSON form: it returns b unchanged and the
// error json.Encoder returns for it.
func appendFrameRecord(b []byte, frame *safemon.Frame) ([]byte, error) {
	for _, v := range frame {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return b, &json.UnsupportedValueError{Value: reflect.ValueOf(v), Str: strconv.FormatFloat(v, 'g', -1, 64)}
		}
	}
	b = append(b, `{"frame":[`...)
	for i, v := range frame {
		if i > 0 {
			b = append(b, ',')
		}
		b = appendFloat(b, v)
	}
	return append(b, "]}\n"...), nil
}

// appendVerdictRecord appends v's response record and its newline to b.
// v.Score must be finite.
func appendVerdictRecord(b []byte, v *VerdictMsg) []byte {
	b = append(b, `{"verdict":{"i":`...)
	b = strconv.AppendInt(b, int64(v.I), 10)
	b = append(b, `,"g":`...)
	b = strconv.AppendInt(b, int64(v.G), 10)
	b = append(b, `,"score":`...)
	b = appendFloat(b, v.Score)
	b = append(b, `,"unsafe":`...)
	b = strconv.AppendBool(b, v.Unsafe)
	return append(b, "}}\n"...)
}

// scanFrame decodes line into frame when it is a frame record of exactly
// frameSize numbers, `{"frame":[…]}` with JSON whitespace allowed
// between tokens, and reports whether it was. It declines everything
// else: another key or spelling of "frame", escapes, labels, another
// count, or a number ParseFloat refuses. frame is unspecified after a
// decline.
func scanFrame(line []byte, frame *safemon.Frame) bool {
	s := scanner{b: line}
	if !s.tok("{") || !s.key(`"frame"`) || !s.tok("[") {
		return false
	}
	for i := range frame {
		if (i > 0 && !s.tok(",")) || !s.float(&frame[i]) {
			return false
		}
	}
	return s.tok("]") && s.tok("}") && s.end()
}

// scanVerdict decodes line into v when it is a verdict record in the
// appender's form, with JSON whitespace allowed between tokens, and
// reports whether it was. Every other line, the action, done and error
// records included, is declined. v is unspecified after a decline.
func scanVerdict(line []byte, v *VerdictMsg) bool {
	s := scanner{b: line}
	return s.tok("{") && s.key(`"verdict"`) && s.tok("{") &&
		s.key(`"i"`) && s.int(&v.I) && s.tok(",") &&
		s.key(`"g"`) && s.int(&v.G) && s.tok(",") &&
		s.key(`"score"`) && s.float(&v.Score) && s.tok(",") &&
		s.key(`"unsafe"`) && s.bool(&v.Unsafe) &&
		s.tok("}") && s.tok("}") && s.end()
}

// blank reports whether line holds only JSON whitespace.
func blank(line []byte) bool {
	s := scanner{b: line}
	return s.end()
}

// scanner walks one NDJSON line. Each method skips JSON whitespace, then
// consumes one token and reports whether it was there.
type scanner struct {
	b []byte
	i int
}

func (s *scanner) space() {
	for s.i < len(s.b) {
		switch s.b[s.i] {
		case ' ', '\t', '\n', '\r':
			s.i++
		default:
			return
		}
	}
}

// end reports whether only whitespace is left.
func (s *scanner) end() bool {
	s.space()
	return s.i == len(s.b)
}

// tok consumes the literal t.
func (s *scanner) tok(t string) bool {
	s.space()
	if len(s.b)-s.i < len(t) || string(s.b[s.i:s.i+len(t)]) != t {
		return false
	}
	s.i += len(t)
	return true
}

// key consumes the quoted object key k and its colon.
func (s *scanner) key(k string) bool { return s.tok(k) && s.tok(":") }

func (s *scanner) bool(v *bool) bool {
	switch {
	case s.tok("true"):
		*v = true
	case s.tok("false"):
		*v = false
	default:
		return false
	}
	return true
}

// float parses one number as encoding/json does for a float64.
func (s *scanner) float(v *float64) bool {
	lit := s.number()
	if lit == nil {
		return false
	}
	f, err := strconv.ParseFloat(string(lit), 64)
	*v = f
	return err == nil
}

// int parses one number as encoding/json does for an int, which refuses
// a fraction or an exponent.
func (s *scanner) int(v *int) bool {
	lit := s.number()
	if lit == nil {
		return false
	}
	n, err := strconv.ParseInt(string(lit), 10, strconv.IntSize)
	*v = int(n)
	return err == nil
}

// number consumes one literal of JSON's number grammar,
// -?(0|[1-9][0-9]*)(\.[0-9]+)?([eE][+-]?[0-9]+)?, and returns its bytes,
// or nil when none starts here.
func (s *scanner) number() []byte {
	s.space()
	b, i := s.b, s.i
	if i < len(b) && b[i] == '-' {
		i++
	}
	switch {
	case i < len(b) && b[i] == '0':
		i++
	case i < len(b) && '1' <= b[i] && b[i] <= '9':
		i = digits(b, i)
	default:
		return nil
	}
	if i < len(b) && b[i] == '.' {
		j := digits(b, i+1)
		if j == i+1 {
			return nil
		}
		i = j
	}
	if i < len(b) && (b[i] == 'e' || b[i] == 'E') {
		i++
		if i < len(b) && (b[i] == '+' || b[i] == '-') {
			i++
		}
		j := digits(b, i)
		if j == i {
			return nil
		}
		i = j
	}
	lit := b[s.i:i]
	s.i = i
	return lit
}

// digits returns the index of the first non-digit in b at or after i.
func digits(b []byte, i int) int {
	for i < len(b) && '0' <= b[i] && b[i] <= '9' {
		i++
	}
	return i
}
