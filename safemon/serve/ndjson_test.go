package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"io"
	"math"
	mathbits "math/bits"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strings"
	"testing"

	"repro/safemon"
)

// encodeJSON is json.Encoder's record for v, newline included: the bytes
// the hot-record appenders must reproduce.
func encodeJSON(tb testing.TB, v any) []byte {
	tb.Helper()
	var buf bytes.Buffer
	if err := json.NewEncoder(&buf).Encode(v); err != nil {
		tb.Fatal(err)
	}
	return buf.Bytes()
}

// spaced respells a frame record the way Python's json.dumps writes it
// by default: a space after every colon and comma.
func spaced(rec []byte) []byte {
	rec = bytes.ReplaceAll(rec, []byte(":"), []byte(": "))
	return bytes.ReplaceAll(rec, []byte(","), []byte(", "))
}

// sameFrame reports whether two decoded frames are both nil or hold the
// same float64 bits.
func sameFrame(a, b []float64) bool {
	if (a == nil) != (b == nil) || len(a) != len(b) {
		return false
	}
	for i := range a {
		if math.Float64bits(a[i]) != math.Float64bits(b[i]) {
			return false
		}
	}
	return true
}

// TestNDJSONHotRecordsMatchEncodingJSON checks the hot records over a
// whole test trajectory: each frame's appended record is json.Encoder's
// bytes, DecodeRecord takes it through the scanner to json.Unmarshal's
// bits, in the appender's spelling and in Python's spaced one, and the
// verdict appender and scanner agree with encoding/json on scores that
// cover both float formats.
func TestNDJSONHotRecordsMatchEncodingJSON(t *testing.T) {
	var msg ClientMsg
	var frame safemon.Frame
	for i, f := range testFold(t).Test[0].Frames {
		rec, err := appendFrameRecord(nil, &f)
		if err != nil {
			t.Fatalf("frame %d: %v", i, err)
		}
		if want := encodeJSON(t, ClientMsg{Frame: f[:]}); !bytes.Equal(rec, want) {
			t.Fatalf("frame %d: appended %q, json.Encoder wrote %q", i, rec, want)
		}
		var want ClientMsg
		if err := json.Unmarshal(rec, &want); err != nil {
			t.Fatal(err)
		}
		for _, line := range [][]byte{rec, spaced(rec)} {
			line = bytes.TrimSpace(line)
			if !scanFrame(line, &frame) {
				t.Fatalf("frame %d: scanner declined %q", i, line)
			}
			if err := DecodeRecord(line, &msg); err != nil || msg.Labels != nil || !sameFrame(msg.Frame, want.Frame) {
				t.Fatalf("frame %d: DecodeRecord(%q) = %+v, %v; json.Unmarshal gives %+v", i, line, msg, err, want)
			}
		}
	}

	// Literals longer than any the appender writes still scan, to the
	// value ParseFloat gives.
	long := []byte(`{"frame":[` + strings.TrimSuffix(strings.Repeat("0.1000000000000000055511151231257827,", frameSize), ",") + `]}`)
	if !scanFrame(long, &frame) || frame[0] != 0.1 || frame[frameSize-1] != 0.1 {
		t.Fatalf("scanFrame declined long literals or decoded %v", frame)
	}

	scores := []float64{0, math.Copysign(0, -1), 0.13, -0.73125, 1e-6, 9.999999e-7, 1e-7, 2.5e-10,
		5e-324, 1e20, 1e21, -1e21, 123456789, math.MaxFloat64, math.SmallestNonzeroFloat64, 1.0 / 3}
	for k, score := range scores {
		v := VerdictMsg{I: k * 997, G: k % 16, Score: score, Unsafe: k%2 == 1}
		rec := appendVerdictRecord(nil, &v)
		if want := encodeJSON(t, ServerMsg{Verdict: &v}); !bytes.Equal(rec, want) {
			t.Fatalf("score %v: appended %q, json.Encoder wrote %q", score, rec, want)
		}
		for _, line := range [][]byte{rec, spaced(rec)} {
			var got VerdictMsg
			if !scanVerdict(line, &got) || got.I != v.I || got.G != v.G || got.Unsafe != v.Unsafe ||
				math.Float64bits(got.Score) != math.Float64bits(v.Score) {
				t.Fatalf("scanVerdict(%q) = %+v, want %+v", line, got, v)
			}
		}
	}
}

// TestNDJSONScannersDecline pins what the scanners leave to
// encoding/json, and that DecodeRecord still answers those lines exactly
// as json.Unmarshal does.
func TestNDJSONScannersDecline(t *testing.T) {
	nums := func(n int, lit string) string { return strings.TrimSuffix(strings.Repeat(lit+",", n), ",") }
	frame38 := nums(frameSize, "0.5")
	for _, line := range []string{
		`{"frame":[` + nums(frameSize-1, "0.5") + `]}`,           // 37 values
		`{"frame":[` + nums(frameSize+1, "0.5") + `]}`,           // 39 values
		`{"Frame":[` + frame38 + `]}`,                            // case-folded key
		`{"fr\u0061me":[` + frame38 + `]}`,                       // escaped key
		`{"frame":[` + frame38 + `],"labels":[1]}`,               // a second key
		`{"labels":[1,2]}`,                                       // the labels header
		`{"frame":[1e309,` + nums(frameSize-1, "0.5") + `]}`,     // ParseFloat overflow
		`{"frame":[01,` + nums(frameSize-1, "0.5") + `]}`,        // leading zero
		`{"frame":[.5,` + nums(frameSize-1, "0.5") + `]}`,        // no integer part
		`{"frame":[1.,` + nums(frameSize-1, "0.5") + `]}`,        // empty fraction
		`{"frame":[1e,` + nums(frameSize-1, "0.5") + `]}`,        // empty exponent
		`{"frame":[+1,` + nums(frameSize-1, "0.5") + `]}`,        // plus sign
		`{"frame":[null,` + nums(frameSize-1, "0.5") + `]}`,      // null
		`{"frame":[` + frame38 + `]}x`,                           // trailing garbage
		"\v" + `{"frame":[` + frame38 + `]}`,                     // non-JSON whitespace
		`{"frame":[` + frame38 + `]`,                             // unterminated
		`{"frame":[` + frame38 + `]}{"frame":[` + frame38 + `]}`, // two records
	} {
		var frame safemon.Frame
		if scanFrame([]byte(line), &frame) {
			t.Fatalf("scanFrame accepted %q", line)
		}
		want, wantErr := unmarshalRecord([]byte(line))
		var msg ClientMsg
		err := DecodeRecord([]byte(line), &msg)
		if !sameDecode(msg, err, want, wantErr) {
			t.Fatalf("DecodeRecord(%q) = %+v, %v; json.Unmarshal gives %+v, %v", line, msg, err, want, wantErr)
		}
	}

	for _, line := range []string{
		`{"verdict":{"i":1.0,"g":2,"score":0.5,"unsafe":true}}`,                  // fractional int
		`{"verdict":{"i":1e2,"g":2,"score":0.5,"unsafe":true}}`,                  // exponent int
		`{"verdict":{"i":99999999999999999999,"g":2,"score":0.5,"unsafe":true}}`, // int overflow
		`{"verdict":{"g":2,"i":1,"score":0.5,"unsafe":true}}`,                    // reordered keys
		`{"Verdict":{"i":1,"g":2,"score":0.5,"unsafe":true}}`,                    // case-folded key
		`{"verdict":{"i":1,"g":2,"score":0.5,"unsafe":1}}`,                       // non-bool
		`{"verdict":{"i":1,"g":2,"score":0.5}}`,                                  // missing field
		`{"action":{"i":3,"level":"warn","alert_frame":2,"score":1.5}}`,
		`{"done":{"frames":812}}`,
		`{"error":{"code":400,"message":"bad record"}}`,
	} {
		var v VerdictMsg
		if scanVerdict([]byte(line), &v) {
			t.Fatalf("scanVerdict accepted %q", line)
		}
	}
}

// unmarshalRecord is DecodeRecord's reference: json.Unmarshal plus the
// non-finite check.
func unmarshalRecord(line []byte) (ClientMsg, error) {
	var msg ClientMsg
	if err := json.Unmarshal(line, &msg); err != nil {
		return ClientMsg{}, err
	}
	for _, v := range msg.Frame {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return ClientMsg{}, errNonFiniteFrame
		}
	}
	return msg, nil
}

// sameDecode reports whether two decodes agree: the same error text, or
// no error and the same labels and frame bits, nil-ness included.
func sameDecode(got ClientMsg, err error, want ClientMsg, wantErr error) bool {
	if err != nil || wantErr != nil {
		return err != nil && wantErr != nil && err.Error() == wantErr.Error()
	}
	return reflect.DeepEqual(got.Labels, want.Labels) && sameFrame(got.Frame, want.Frame)
}

// writeCloser is a Stream request body that records what Send writes.
type writeCloser struct{ io.Writer }

func (writeCloser) Close() error { return nil }

// FuzzHotRecords checks the hot records' byte form against encoding/json
// on arbitrary float64 bit patterns, ints and bools: a finite frame's
// and verdict's appended bytes equal json.Encoder's and scan back to the
// same bits; a frame holding a non-finite value makes Send return
// json.Encoder's error and write nothing; and on an arbitrary line the
// client's verdict scanner either declines or returns exactly what
// json.Unmarshal decodes.
func FuzzHotRecords(f *testing.F) {
	f.Add(math.Float64bits(0.13), 812, 3, true, []byte(`{"verdict":{"i":0,"g":2,"score":0.13,"unsafe":false}}`))
	f.Add(math.Float64bits(1e-7), -1, 0, false, []byte(` { "verdict" : { "i" : 7 , "g" : 1 , "score" : 1e-7 , "unsafe" : true } } `))
	f.Add(math.Float64bits(math.NaN()), 0, 0, false, []byte(`{"done":{"frames":3}}`))
	f.Add(math.Float64bits(math.Inf(-1)), 1, 2, true, []byte(`{"verdict":{"i":-0,"g":2,"score":-0,"unsafe":false}}`))
	f.Add(uint64(0x3ff8000000000000), math.MaxInt, math.MinInt, false, []byte(`{"verdict":{"i":1,"g":2,"score":1E+400,"unsafe":false}}`))

	f.Fuzz(func(t *testing.T, bits uint64, i, g int, unsafe bool, line []byte) {
		var frame safemon.Frame
		finite := true
		for k := range frame {
			frame[k] = math.Float64frombits(mathbits.RotateLeft64(bits, k))
			finite = finite && !math.IsNaN(frame[k]) && !math.IsInf(frame[k], 0)
		}
		var sent bytes.Buffer
		err := (&Stream{body: writeCloser{&sent}}).Send(&frame)
		wantErr := json.NewEncoder(io.Discard).Encode(ClientMsg{Frame: frame[:]})
		switch {
		case !finite:
			if err == nil || wantErr == nil || err.Error() != wantErr.Error() || sent.Len() != 0 {
				t.Fatalf("non-finite frame: Send = %v and wrote %d bytes; json.Encoder error %v", err, sent.Len(), wantErr)
			}
		case err != nil:
			t.Fatalf("finite frame: Send = %v", err)
		default:
			if want := encodeJSON(t, ClientMsg{Frame: frame[:]}); !bytes.Equal(sent.Bytes(), want) {
				t.Fatalf("frame record %q, json.Encoder wrote %q", sent.Bytes(), want)
			}
			var back safemon.Frame
			if !scanFrame(sent.Bytes(), &back) || !sameFrame(back[:], frame[:]) {
				t.Fatalf("scanFrame(%q) = %v, want %v", sent.Bytes(), back, frame)
			}
		}

		v := VerdictMsg{I: i, G: g, Score: math.Float64frombits(bits), Unsafe: unsafe}
		if !math.IsNaN(v.Score) && !math.IsInf(v.Score, 0) {
			rec := appendVerdictRecord(nil, &v)
			if want := encodeJSON(t, ServerMsg{Verdict: &v}); !bytes.Equal(rec, want) {
				t.Fatalf("verdict record %q, json.Encoder wrote %q", rec, want)
			}
			var got VerdictMsg
			if !scanVerdict(rec, &got) || got.I != v.I || got.G != v.G || got.Unsafe != v.Unsafe ||
				math.Float64bits(got.Score) != math.Float64bits(v.Score) {
				t.Fatalf("scanVerdict(%q) = %+v, want %+v", rec, got, v)
			}
		}

		var got VerdictMsg
		if scanVerdict(line, &got) {
			var msg ServerMsg
			if err := json.Unmarshal(line, &msg); err != nil {
				t.Fatalf("scanVerdict accepted %q, which json.Unmarshal refuses: %v", line, err)
			}
			if msg.Verdict == nil || msg.Action != nil || msg.Done != nil || msg.Error != nil ||
				msg.Verdict.I != got.I || msg.Verdict.G != got.G || msg.Verdict.Unsafe != got.Unsafe ||
				math.Float64bits(msg.Verdict.Score) != math.Float64bits(got.Score) {
				t.Fatalf("scanVerdict(%q) = %+v; json.Unmarshal gives %+v", line, got, msg)
			}
		}
	})
}

// TestStreamRecvUnfinishedResponse pins Recv's end-of-body contract: a
// response that ends without a done or error record, or mid-line, makes
// Client.StreamTrajectory fail with io.ErrUnexpectedEOF instead of
// passing for a finished stream; a line longer than the client's read
// buffer still arrives whole.
func TestStreamRecvUnfinishedResponse(t *testing.T) {
	verdict := `{"verdict":{"i":0,"g":0,"score":0,"unsafe":false}}` + "\n"
	long := strings.Repeat("x", 10000)
	cases := []struct {
		name, body string
		want       func(error) bool
	}{
		{"done", verdict + `{"done":{"frames":1}}` + "\n", func(err error) bool { return err == nil }},
		{"no-done", verdict, func(err error) bool { return errors.Is(err, io.ErrUnexpectedEOF) }},
		{"mid-line", verdict + `{"done":{"fra`, func(err error) bool { return errors.Is(err, io.ErrUnexpectedEOF) }},
		{"long-error", `{"error":{"code":500,"message":"` + long + `"}}` + "\n", func(err error) bool {
			var em *ErrorMsg
			return errors.As(err, &em) && em.Code == http.StatusInternalServerError && em.Message == long
		}},
	}
	traj := &safemon.Trajectory{Frames: testFold(t).Test[0].Frames[:1]}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
				http.NewResponseController(w).EnableFullDuplex()
				w.Header().Set("Content-Type", "application/x-ndjson")
				w.WriteHeader(http.StatusOK)
				io.WriteString(w, tc.body)
				w.(http.Flusher).Flush()
				io.Copy(io.Discard, r.Body) // end the response once the client half-closes
			}))
			defer ts.Close()
			client := &Client{BaseURL: ts.URL, HTTPClient: ts.Client()}
			verdicts, err := client.StreamTrajectory(context.Background(), "envelope", traj)
			if !tc.want(err) {
				t.Fatalf("StreamTrajectory over %q: %d verdicts, err %v", tc.name, len(verdicts), err)
			}
		})
	}
}
