package serve

import (
	"testing"

	"repro/safemon"
)

// BenchmarkCodecRoundTrip measures one encode+decode cycle for the two
// record types that dominate a stream — the 38-float client frame and the
// server verdict — in both wire codecs, through the production pairs:
// the client's frame appender then the server's DecodeRecord, and the
// server's verdict appender then the client's verdict scanner for
// NDJSON; AppendBinaryRecord then DecodeBinaryRecord for binary.
// scripts/benchguard.sh gates every sub: each must run warm with 0
// allocs/op (reused append buffer, reused decode record) and within its
// median ns/op budget.
func BenchmarkCodecRoundTrip(b *testing.B) {
	var frame safemon.Frame
	for i := range frame {
		frame[i] = 0.125 * float64(i+1)
	}
	verdict := VerdictMsg{I: 812, G: 3, Score: 0.73125, Unsafe: true}

	b.Run("json-frame", func(b *testing.B) {
		b.ReportAllocs()
		var buf []byte
		var msg ClientMsg
		for i := 0; i < b.N; i++ {
			var err error
			buf, err = appendFrameRecord(buf[:0], &frame)
			if err != nil {
				b.Fatal(err)
			}
			// The server's record reader hands DecodeRecord the line
			// without its newline.
			if err := DecodeRecord(buf[:len(buf)-1], &msg); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("binary-frame", func(b *testing.B) {
		b.ReportAllocs()
		var buf []byte
		var rec, out BinaryRecord
		rec.Type = BinFrame
		rec.SID = 7
		rec.Frame = frame
		for i := 0; i < b.N; i++ {
			var err error
			buf, err = AppendBinaryRecord(buf[:0], &rec)
			if err != nil {
				b.Fatal(err)
			}
			if _, err := DecodeBinaryRecord(buf, &out); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("json-verdict", func(b *testing.B) {
		b.ReportAllocs()
		var buf []byte
		var out VerdictMsg
		for i := 0; i < b.N; i++ {
			buf = appendVerdictRecord(buf[:0], &verdict)
			if !scanVerdict(buf, &out) {
				b.Fatalf("verdict record %q declined", buf)
			}
		}
	})
	b.Run("binary-verdict", func(b *testing.B) {
		b.ReportAllocs()
		var buf []byte
		var rec, out BinaryRecord
		rec.Type = BinVerdict
		rec.SID = 7
		rec.Verdict = verdict
		for i := 0; i < b.N; i++ {
			var err error
			buf, err = AppendBinaryRecord(buf[:0], &rec)
			if err != nil {
				b.Fatal(err)
			}
			if _, err := DecodeBinaryRecord(buf, &out); err != nil {
				b.Fatal(err)
			}
		}
	})
}
