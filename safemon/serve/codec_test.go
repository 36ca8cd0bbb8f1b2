package serve

import (
	"bytes"
	"context"
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"repro/safemon"
)

// newHTTPTestServer mounts an already-built Server behind httptest with
// cleanup (newTestService's twin for custom Configs).
func newHTTPTestServer(t *testing.T, srv *Server) *httptest.Server {
	t.Helper()
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(func() {
		ts.Close()
		srv.Shutdown()
	})
	return ts
}

// isHTTPError reports whether err is a wire *ErrorMsg with the code.
func isHTTPError(err error, code int) bool {
	var em *ErrorMsg
	return errors.As(err, &em) && em.Code == code
}

// randomBinaryRecord generates one semantically valid record of a random
// type for the round-trip property test.
func randomBinaryRecord(r *rand.Rand) BinaryRecord {
	randString := func(max int) string {
		b := make([]byte, r.Intn(max+1))
		for i := range b {
			b[i] = byte('a' + r.Intn(26))
		}
		return string(b)
	}
	rec := BinaryRecord{Type: byte(1 + r.Intn(int(binMaxType))), SID: r.Uint32()}
	switch rec.Type {
	case BinFrame:
		for i := range rec.Frame {
			rec.Frame[i] = r.NormFloat64() * 100
		}
	case BinLabels, BinOpen:
		for i := 0; i < r.Intn(40); i++ {
			rec.Labels = append(rec.Labels, r.Intn(16)-1)
		}
		if rec.Type == BinOpen {
			rec.Backend = randString(12)
			rec.Policy = randString(12)
		}
	case BinVerdict:
		rec.Verdict = VerdictMsg{I: r.Intn(1 << 20), G: r.Intn(15) - 1, Score: r.NormFloat64(), Unsafe: r.Intn(2) == 1}
	case BinAction:
		rec.Action = ActionMsg{
			I:          r.Intn(1 << 20),
			AlertFrame: r.Intn(1<<20) - 1,
			Score:      r.NormFloat64(),
			Level:      actionLevels[r.Intn(len(actionLevels))],
			Policy:     randString(30),
		}
	case BinDone:
		rec.Frames = r.Uint64()
	case BinError:
		rec.Code = uint32(r.Intn(600))
		rec.Message = randString(60)
	case BinOpened:
		rec.Version = randString(20)
	case BinClose:
	}
	return rec
}

// binaryRecordsEqual compares the fields meaningful for the record's
// type, treating nil and empty label slices as equal.
func binaryRecordsEqual(a, b *BinaryRecord) bool {
	if a.Type != b.Type || a.SID != b.SID {
		return false
	}
	if len(a.Labels) != len(b.Labels) {
		return false
	}
	for i := range a.Labels {
		if a.Labels[i] != b.Labels[i] {
			return false
		}
	}
	return a.Frame == b.Frame && a.Verdict == b.Verdict && a.Action == b.Action &&
		a.Frames == b.Frames && a.Code == b.Code && a.Message == b.Message &&
		a.Backend == b.Backend && a.Policy == b.Policy && a.Version == b.Version
}

// TestBinaryRecordRoundTripProperty drives random records of every type
// through encode → decode and requires lossless agreement, both one
// record at a time and as concatenated streams through a binReader
// (which also proves the decoder stays aligned across a mixed stream).
func TestBinaryRecordRoundTripProperty(t *testing.T) {
	r := rand.New(rand.NewSource(11))
	var got BinaryRecord
	for i := 0; i < 2000; i++ {
		rec := randomBinaryRecord(r)
		b, err := AppendBinaryRecord(nil, &rec)
		if err != nil {
			t.Fatalf("encode %d: %v", i, err)
		}
		n, err := DecodeBinaryRecord(b, &got)
		if err != nil {
			t.Fatalf("decode %d: %v", i, err)
		}
		if n != len(b) {
			t.Fatalf("decode %d consumed %d of %d bytes", i, n, len(b))
		}
		if !binaryRecordsEqual(&rec, &got) {
			t.Fatalf("round trip %d: sent %+v got %+v", i, rec, got)
		}
	}

	for seq := 0; seq < 100; seq++ {
		var stream []byte
		var sent []BinaryRecord
		for i := 0; i < 1+r.Intn(16); i++ {
			rec := randomBinaryRecord(r)
			b, err := AppendBinaryRecord(stream, &rec)
			if err != nil {
				t.Fatal(err)
			}
			stream = b
			sent = append(sent, rec)
		}
		br := newBinReader(bytes.NewReader(stream))
		for i := range sent {
			rec, err := br.next()
			if err != nil {
				t.Fatalf("seq %d record %d: %v", seq, i, err)
			}
			if !binaryRecordsEqual(&sent[i], rec) {
				t.Fatalf("seq %d record %d: sent %+v got %+v", seq, i, sent[i], *rec)
			}
		}
		if _, err := br.next(); err != io.EOF {
			t.Fatalf("seq %d: want io.EOF after last record, got %v", seq, err)
		}
		br.release()
	}
}

// encodeRaw frames an arbitrary payload under a given type for the
// malformed-input tests.
func encodeRaw(typ byte, sid uint32, payload []byte) []byte {
	b := appendBinHeader(nil, typ, sid, len(payload))
	return append(b, payload...)
}

// TestDecodeBinaryRecordMalformed pins the decoder's rejection behavior:
// short buffers and oversized lengths are framing errors, ragged payloads
// are errBadPayload (recoverable per sid, with Type and SID preserved),
// and nothing panics.
func TestDecodeBinaryRecordMalformed(t *testing.T) {
	frame := make([]byte, binFramePayload)
	cases := []struct {
		name       string
		b          []byte
		badPayload bool // want errors.Is(err, errBadPayload)
	}{
		{"empty", nil, false},
		{"short header", []byte{byte(BinFrame), 0, 0}, false},
		{"truncated payload", encodeRaw(BinFrame, 1, frame)[:40], false},
		{"oversized length", appendBinHeader(nil, BinFrame, 1, maxRecordBytes+1), false},
		{"type zero", encodeRaw(0, 1, nil), false},
		{"type unknown", encodeRaw(binMaxType+1, 1, nil), false},
		{"frame short", encodeRaw(BinFrame, 7, frame[:binFramePayload-8]), true},
		{"frame long", encodeRaw(BinFrame, 7, append(append([]byte{}, frame...), 0, 0, 0, 0, 0, 0, 0, 0)), true},
		{"labels ragged", encodeRaw(BinLabels, 7, []byte{1, 2, 3}), true},
		{"verdict short", encodeRaw(BinVerdict, 7, make([]byte, binVerdictPayload-1)), true},
		{"verdict bad bool", encodeRaw(BinVerdict, 7, append(make([]byte, binVerdictPayload-1), 7)), true},
		{"action short", encodeRaw(BinAction, 7, make([]byte, binActionMin-1)), true},
		{"action bad level", encodeRaw(BinAction, 7, func() []byte {
			p := make([]byte, binActionMin)
			p[24] = byte(len(actionLevels))
			return p
		}()), true},
		{"action bad policy len", encodeRaw(BinAction, 7, func() []byte {
			p := make([]byte, binActionMin)
			p[25] = 9 // claims 9 policy bytes, payload has 0
			return p
		}()), true},
		{"done short", encodeRaw(BinDone, 7, make([]byte, binDonePayload-1)), true},
		{"error short", encodeRaw(BinError, 7, []byte{1, 2}), true},
		{"open short", encodeRaw(BinOpen, 7, []byte{9}), true},
		{"open backend overrun", encodeRaw(BinOpen, 7, []byte{200, 0, 'x'}), true},
		{"open policy overrun", encodeRaw(BinOpen, 7, []byte{1, 0, 'x', 200, 0}), true},
		{"open labels ragged", encodeRaw(BinOpen, 7, []byte{0, 0, 0, 0, 1, 2, 3}), true},
		{"close nonempty", encodeRaw(BinClose, 7, []byte{1}), true},
	}
	var rec BinaryRecord
	for _, tc := range cases {
		_, err := DecodeBinaryRecord(tc.b, &rec)
		if err == nil {
			t.Errorf("%s: decode succeeded", tc.name)
			continue
		}
		if got := errors.Is(err, errBadPayload); got != tc.badPayload {
			t.Errorf("%s: errBadPayload = %v, want %v (err %v)", tc.name, got, tc.badPayload, err)
		}
		if tc.badPayload && rec.SID != 7 {
			t.Errorf("%s: sid %d not preserved on payload error", tc.name, rec.SID)
		}
	}
}

// TestBinaryDecodeRejectsNonFinite is the binary codec's non-finite
// regression test: a frame record carrying NaN or ±Inf must be rejected
// at decode time as a payload error, before it can reach a backend.
func TestBinaryDecodeRejectsNonFinite(t *testing.T) {
	for name, bad := range map[string]float64{"nan": math.NaN(), "+inf": math.Inf(1), "-inf": math.Inf(-1)} {
		payload := make([]byte, binFramePayload)
		binary.LittleEndian.PutUint64(payload[8*17:], math.Float64bits(bad))
		var rec BinaryRecord
		_, err := DecodeBinaryRecord(encodeRaw(BinFrame, 3, payload), &rec)
		if !errors.Is(err, errNonFiniteFrame) {
			t.Errorf("%s: err = %v, want errNonFiniteFrame", name, err)
		}
		if !errors.Is(err, errBadPayload) {
			t.Errorf("%s: non-finite rejection must be a payload error", name)
		}
	}
}

// TestJSONDecodeRejectsNonFinite is the NDJSON codec's twin: no frame
// value outside the finite float64 range may decode, whether spelled as
// an overflow literal or smuggled in non-standard JSON.
func TestJSONDecodeRejectsNonFinite(t *testing.T) {
	var msg ClientMsg
	if err := DecodeRecord([]byte(`{"frame":[1e999]}`), &msg); err == nil {
		t.Error("overflowing frame literal decoded")
	}
	// The explicit finiteness check (for decoders reached with already-
	// parsed values): patch a NaN in after a valid parse.
	if err := DecodeRecord([]byte(`{"frame":[1,2,3]}`), &msg); err != nil {
		t.Fatal(err)
	}
	msg.Frame[1] = math.NaN()
	found := false
	for _, v := range msg.Frame {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			found = true
		}
	}
	if !found {
		t.Fatal("test harness failed to construct a NaN")
	}
}

// TestStreamRejectsNonFiniteFrames drives the rejection end to end on
// both codecs: a non-finite frame answers a 400 error record and ends
// the stream.
func TestStreamRejectsNonFiniteFrames(t *testing.T) {
	det := fittedDetector(t, "envelope")
	_, client := newTestService(t, map[string]safemon.Detector{"envelope": det}, ManagerConfig{})

	t.Run("json", func(t *testing.T) {
		// Hand-rolled request: the Go client refuses to marshal NaN, which
		// is exactly why the server must still reject it on the wire.
		body := strings.NewReader(`{"frame":[NaN` + strings.Repeat(",0", frameSize-1) + `]}` + "\n")
		req, err := http.NewRequest(http.MethodPost, client.BaseURL+"/v1/stream?backend=envelope", body)
		if err != nil {
			t.Fatal(err)
		}
		req.Header.Set("Content-Type", "application/x-ndjson")
		resp, err := client.httpClient().Do(req)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		var msg ServerMsg
		if err := json.NewDecoder(resp.Body).Decode(&msg); err != nil {
			t.Fatal(err)
		}
		if msg.Error == nil || msg.Error.Code != http.StatusBadRequest {
			t.Fatalf("want 400 error record, got %+v", msg)
		}
	})

	t.Run("binary", func(t *testing.T) {
		bc := *client
		bc.Codec = "binary"
		st, err := bc.Open(context.Background(), "envelope", nil)
		if err != nil {
			t.Fatal(err)
		}
		defer st.Close()
		var frame safemon.Frame
		frame[5] = math.Inf(1)
		if err := st.Send(&frame); err != nil {
			t.Fatal(err)
		}
		_, err = st.Recv()
		var em *ErrorMsg
		if !errors.As(err, &em) || em.Code != http.StatusBadRequest {
			t.Fatalf("want 400 error record, got %v", err)
		}
	})
}

// TestScannerBufferPooled pins satellite 2: the NDJSON record reader's
// 64 KiB scan buffer comes from a pool, so steady-state per-connection
// setup allocates far less than the buffer it borrows.
func TestScannerBufferPooled(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation inflates allocation measurements")
	}
	line := []byte(`{"frame":[` + strings.Repeat("0,", frameSize-1) + `0]}` + "\n")
	// Warm the pool.
	for i := 0; i < 8; i++ {
		rr := newRecordReader(bytes.NewReader(line))
		var msg ClientMsg
		if err := rr.next(&msg); err != nil {
			t.Fatal(err)
		}
		rr.release()
	}
	res := testing.Benchmark(func(b *testing.B) {
		b.ReportAllocs()
		var msg ClientMsg
		for i := 0; i < b.N; i++ {
			rr := newRecordReader(bytes.NewReader(line))
			if err := rr.next(&msg); err != nil {
				b.Fatal(err)
			}
			rr.release()
		}
	})
	if per := res.AllocedBytesPerOp(); per > 16<<10 {
		t.Fatalf("record reader allocates %d B per connection; the 64 KiB scan buffer is not pooled", per)
	}
}

// TestBinaryStreamEndToEnd runs a whole trajectory over a binary
// /v1/stream connection and requires exact verdict agreement with the
// NDJSON transport, plus exact codec counters in /metrics.
func TestBinaryStreamEndToEnd(t *testing.T) {
	det := fittedDetector(t, "envelope")
	_, client := newTestService(t, map[string]safemon.Detector{"envelope": det}, ManagerConfig{})
	traj := testFold(t).Test[0]
	ctx := context.Background()

	jsonVerdicts, err := client.StreamTrajectory(ctx, "envelope", traj)
	if err != nil {
		t.Fatal(err)
	}
	bc := *client
	bc.Codec = "binary"
	binVerdicts, err := bc.StreamTrajectory(ctx, "envelope", traj)
	if err != nil {
		t.Fatal(err)
	}
	if len(jsonVerdicts) != len(binVerdicts) {
		t.Fatalf("json %d verdicts, binary %d", len(jsonVerdicts), len(binVerdicts))
	}
	for i := range jsonVerdicts {
		if jsonVerdicts[i] != binVerdicts[i] {
			t.Fatalf("verdict %d: json %+v binary %+v", i, jsonVerdicts[i], binVerdicts[i])
		}
	}

	scrape := scrapeMetrics(t, client.httpClient(), client.BaseURL+"/metrics")
	jsonStreams := scrape.get(t, `safemon_streams_total{codec="json"}`)
	binStreams := scrape.get(t, `safemon_streams_total{codec="binary"}`)
	if jsonStreams != 1 || binStreams != 1 {
		t.Fatalf("streams = %v json / %v binary, want 1 / 1", jsonStreams, binStreams)
	}
}

// TestGuardedBinaryStream pins action records across codecs: a guarded
// binary stream must deliver the same action sequence as its NDJSON
// twin.
func TestGuardedBinaryStream(t *testing.T) {
	_, client := newGuardedService(t, testGuardPolicy())
	safe, wild := guardProbeFrames(t)
	frames := make([]safemon.Frame, 0, 14)
	for i := 0; i < 5; i++ {
		frames = append(frames, safe)
	}
	for i := 0; i < 4; i++ {
		frames = append(frames, wild)
	}
	for i := 0; i < 5; i++ {
		frames = append(frames, safe)
	}

	run := func(codec string) []ActionMsg {
		t.Helper()
		c := *client
		c.Codec = codec
		st, err := c.OpenGuarded(context.Background(), "envelope", "stop-fast", nil)
		if err != nil {
			t.Fatal(err)
		}
		defer st.Close()
		for i := range frames {
			if err := st.Send(&frames[i]); err != nil {
				t.Fatalf("send %d: %v", i, err)
			}
			if _, err := st.Recv(); err != nil {
				t.Fatalf("recv %d: %v", i, err)
			}
		}
		if err := st.CloseSend(); err != nil {
			t.Fatal(err)
		}
		if _, err := st.Recv(); err != io.EOF {
			t.Fatalf("want done, got %v", err)
		}
		return st.Actions()
	}

	jsonActions := run("")
	binActions := run("binary")
	if len(jsonActions) == 0 {
		t.Fatal("guarded stream produced no actions")
	}
	if fmt.Sprintf("%+v", jsonActions) != fmt.Sprintf("%+v", binActions) {
		t.Fatalf("actions differ:\n json  %+v\n binary %+v", jsonActions, binActions)
	}
}
