package serve

import (
	"bytes"
	"encoding/json"
	"errors"
	"io"
	"strings"
	"testing"
)

// FuzzDecodeRecord fuzzes the NDJSON request parser end to end: the raw
// input is fed both through DecodeRecord (single line) and through
// recordReader (the streaming path the server uses, including the
// per-record size cap). Whatever the bytes are — malformed JSON, truncated
// records, nested garbage, oversized lines — the parser must never panic,
// and every record it does accept must survive a marshal round trip.
// Differentially, DecodeRecord must equal json.Unmarshal plus the
// non-finite check on every input, into a fresh message and into one
// whose frame array the frame scanner reuses: the same error text, or
// the same labels and frame bits, nil-ness included.
func FuzzDecodeRecord(f *testing.F) {
	f.Add([]byte(`{"labels":[1,2,2,3]}`))
	f.Add([]byte(`{"frame":[0.1,0.2,0.3]}`))
	f.Add([]byte(`{"labels":[1],"frame":[0.5]}`))
	f.Add([]byte(`{}`))
	f.Add([]byte(``))
	f.Add([]byte(`  {"frame":[]}  `))
	f.Add([]byte(`{"frame":[1e309]}`))
	f.Add([]byte(`{"frame":[null]}`))
	f.Add([]byte(`{"labels":{"a":1}}`))
	f.Add([]byte(`not json at all`))
	f.Add([]byte(`{"frame":[0.1`))
	f.Add([]byte("{\"frame\":[0.1]}\n{\"frame\":[0.2]}\n"))
	f.Add([]byte("\n\n\n"))
	f.Add([]byte(`[1,2,3]`))
	f.Add([]byte(`"frame"`))
	f.Add(bytes.Repeat([]byte(`{"frame":[1.5]}`+"\n"), 64))

	f.Fuzz(func(t *testing.T, data []byte) {
		// Single-record decode: error or round-trippable record, no panic.
		var msg ClientMsg
		err := DecodeRecord(data, &msg)
		if err == nil {
			if _, err := json.Marshal(msg); err != nil {
				t.Fatalf("accepted record does not re-marshal: %v", err)
			}
		}

		// Differential: the same answer as encoding/json, whether or not
		// the frame scanner took the line.
		want, wantErr := unmarshalRecord(data)
		if !sameDecode(msg, err, want, wantErr) {
			t.Fatalf("DecodeRecord(%q) = %+v, %v; json.Unmarshal gives %+v, %v", data, msg, err, want, wantErr)
		}
		reused := ClientMsg{Labels: []int{7}, Frame: make([]float64, frameSize)}
		if err := DecodeRecord(data, &reused); !sameDecode(reused, err, want, wantErr) {
			t.Fatalf("DecodeRecord(%q) into a used message = %+v, %v; json.Unmarshal gives %+v, %v", data, reused, err, want, wantErr)
		}

		// Streaming decode: the reader must terminate with io.EOF or a
		// parse error within a bounded number of records and never panic.
		dec := newRecordReader(bytes.NewReader(data))
		for i := 0; ; i++ {
			var rec ClientMsg
			err := dec.next(&rec)
			if errors.Is(err, io.EOF) {
				break
			}
			if err != nil {
				break // malformed record terminates the stream; fine
			}
			if i > len(data) {
				t.Fatalf("record reader yielded more records than input bytes")
			}
		}
	})
}

// TestRecordReaderSizeCap pins the 1 MB per-record cap: a line just under
// the cap parses (or fails as plain JSON), a line over it fails with
// errRecordTooLarge instead of buffering without bound, and records after
// an empty line still decode.
func TestRecordReaderSizeCap(t *testing.T) {
	// A real, valid labels header close to the cap.
	big := `{"labels":[` + strings.Repeat("1,", 120000) + `1]}`
	if len(big) >= maxRecordBytes {
		t.Fatalf("test header unexpectedly over the cap: %d", len(big))
	}
	dec := newRecordReader(strings.NewReader(big + "\n"))
	var msg ClientMsg
	if err := dec.next(&msg); err != nil {
		t.Fatalf("near-cap record rejected: %v", err)
	}
	if len(msg.Labels) != 120001 {
		t.Fatalf("near-cap record decoded %d labels, want 120001", len(msg.Labels))
	}

	// One byte over the cap must fail with the explicit cap error.
	over := strings.Repeat("x", maxRecordBytes+1)
	dec = newRecordReader(strings.NewReader(over))
	err := dec.next(&msg)
	if !errors.Is(err, errRecordTooLarge) {
		t.Fatalf("oversize record error = %v, want errRecordTooLarge", err)
	}

	// Empty and whitespace-only lines are skipped, not records.
	dec = newRecordReader(strings.NewReader("\n   \n{\"frame\":[1.5]}\n"))
	if err := dec.next(&msg); err != nil {
		t.Fatalf("record after blank lines: %v", err)
	}
	if len(msg.Frame) != 1 || msg.Frame[0] != 1.5 {
		t.Fatalf("record after blank lines decoded %+v", msg)
	}
	if err := dec.next(&msg); !errors.Is(err, io.EOF) {
		t.Fatalf("stream end = %v, want io.EOF", err)
	}

	// A partial final record (client hung up mid-line) must decode as a
	// JSON error, not hang or panic.
	dec = newRecordReader(strings.NewReader(`{"frame":[0.1,0.2`))
	if err := dec.next(&msg); err == nil {
		t.Fatal("truncated record accepted")
	}
}
