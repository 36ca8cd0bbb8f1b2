package serve

import (
	"bytes"
	"encoding/binary"
	"errors"
	"io"
	"math"
	"testing"
)

// fuzzSeedRecord encodes one record for the fuzz seed corpus, panicking
// on failure (seeds are built from valid records only).
func fuzzSeedRecord(rec BinaryRecord) []byte {
	b, err := AppendBinaryRecord(nil, &rec)
	if err != nil {
		panic(err)
	}
	return b
}

// FuzzDecodeBinaryRecord fuzzes the binary codec the same way
// FuzzDecodeRecord fuzzes the NDJSON parser: arbitrary bytes through
// DecodeBinaryRecord (single record) and through binReader (the
// streaming path with the per-record cap). The decoder must never panic,
// must never consume more bytes than it was given, and every record it
// accepts must re-encode to exactly the bytes it consumed — the binary
// codec is bijective on valid records.
func FuzzDecodeBinaryRecord(f *testing.F) {
	var frame [38]float64
	for i := range frame {
		frame[i] = 0.25 * float64(i)
	}
	f.Add(fuzzSeedRecord(BinaryRecord{Type: BinFrame, SID: 1, Frame: frame}))
	// The reserved type 2: framed intact, refused as an unknown type.
	f.Add(encodeRaw(binReserved, 0, []byte{1, 0, 0, 0, 2, 0, 0, 0}))
	f.Add(fuzzSeedRecord(BinaryRecord{Type: BinVerdict, SID: 9, Verdict: VerdictMsg{I: 12, G: 3, Score: 0.75, Unsafe: true}}))
	f.Add(fuzzSeedRecord(BinaryRecord{Type: BinAction, SID: 2, Action: ActionMsg{I: 8, AlertFrame: 6, Score: 2.5, Level: "safe-stop", Policy: "stop-fast"}}))
	f.Add(fuzzSeedRecord(BinaryRecord{Type: BinDone, Frames: 812}))
	f.Add(fuzzSeedRecord(BinaryRecord{Type: BinError, Code: 429, Message: "queue full"}))
	f.Add(fuzzSeedRecord(BinaryRecord{Type: BinOpen, SID: 3, Backend: "envelope", Policy: "stop-fast", Labels: []int{1, 2}}))
	f.Add(fuzzSeedRecord(BinaryRecord{Type: BinOpened, SID: 3, Version: "v0001"}))
	f.Add(fuzzSeedRecord(BinaryRecord{Type: BinClose, SID: 3}))
	// Malformed shapes: truncation, bad type, non-finite frame, over-cap
	// length, trailing garbage, back-to-back records.
	f.Add([]byte{})
	f.Add([]byte{byte(BinFrame), 0, 0, 0})
	f.Add(fuzzSeedRecord(BinaryRecord{Type: BinFrame, Frame: frame})[:40])
	f.Add(appendBinHeader(nil, BinFrame, 1, maxRecordBytes+1))
	f.Add(encodeRaw(0xFF, 1, []byte{1, 2, 3}))
	f.Add(func() []byte {
		p := make([]byte, binFramePayload)
		binary.LittleEndian.PutUint64(p, math.Float64bits(math.NaN()))
		return encodeRaw(BinFrame, 1, p)
	}())
	f.Add(append(fuzzSeedRecord(BinaryRecord{Type: BinClose}), fuzzSeedRecord(BinaryRecord{Type: BinDone, Frames: 3})...))

	f.Fuzz(func(t *testing.T, data []byte) {
		var rec BinaryRecord
		n, err := DecodeBinaryRecord(data, &rec)
		if n < 0 || n > len(data) {
			t.Fatalf("decode consumed %d of %d bytes", n, len(data))
		}
		if err == nil {
			re, err := AppendBinaryRecord(nil, &rec)
			if err != nil {
				t.Fatalf("accepted record does not re-encode: %v", err)
			}
			if !bytes.Equal(re, data[:n]) {
				t.Fatalf("re-encoded record differs from consumed bytes:\n in  %x\n out %x", data[:n], re)
			}
		}

		// Streaming decode: bounded records, clean termination, no panic.
		br := newBinReader(bytes.NewReader(data))
		for i := 0; ; i++ {
			_, err := br.next()
			if errors.Is(err, io.EOF) {
				break
			}
			if err != nil && !errors.Is(err, errBadPayload) {
				break // framing error terminates the stream
			}
			// Payload errors leave the stream aligned; keep reading.
			if i > len(data) {
				t.Fatal("binary reader yielded more records than input bytes")
			}
		}
	})
}
