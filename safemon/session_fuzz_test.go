package safemon

import (
	"encoding/binary"
	"math"
	"testing"
)

// frameBytes is the size of one fuzzed frame: a Frame's values as
// little-endian float64s.
const frameBytes = len(Frame{}) * 8

// maxFuzzFrames caps the frames one input pushes. Every window and the
// cascade's hold-off are far shorter, so longer inputs reach no new state.
const maxFuzzFrames = 256

// fuzzFrames decodes data as consecutive frames, ignoring a trailing
// partial frame. The serve codecs refuse non-finite values, so each NaN
// becomes 0 and each ±Inf becomes ±math.MaxFloat64.
func fuzzFrames(data []byte) []Frame {
	frames := make([]Frame, min(len(data)/frameBytes, maxFuzzFrames))
	for i := range frames {
		for k := range frames[i] {
			v := math.Float64frombits(binary.LittleEndian.Uint64(data[i*frameBytes+k*8:]))
			switch {
			case math.IsNaN(v):
				v = 0
			case math.IsInf(v, 0):
				v = math.Copysign(math.MaxFloat64, v)
			}
			frames[i][k] = v
		}
	}
	return frames
}

// encodeFrames is fuzzFrames' inverse for finite frames.
func encodeFrames(frames []Frame) []byte {
	out := make([]byte, 0, len(frames)*frameBytes)
	for i := range frames {
		for _, v := range frames[i] {
			out = binary.LittleEndian.AppendUint64(out, math.Float64bits(v))
		}
	}
	return out
}

// FuzzSessionPush drives arbitrary finite frames through a fresh session
// of every registered backend, on the fitted fixtures. Push must neither
// panic nor fail, every verdict must carry its frame's index, a NaN score
// must be unsafe, and a warm Push must not allocate. The seeds are a fold
// trajectory, all-zero frames, ±1e10 mixed in sign, and
// ±math.MaxFloat64. `make fuzz-replay` (part of `make ci`) replays them.
func FuzzSessionPush(f *testing.F) {
	for _, backend := range Backends() {
		fittedDetector(f, backend)
	}
	f.Add(encodeFrames(testFold(f).Test[0].Frames))
	extreme := func(mag float64) []Frame {
		frames := make([]Frame, 20)
		for i := range frames {
			for k := range frames[i] {
				frames[i][k] = mag
				if (i+k)%2 == 1 {
					frames[i][k] = -mag
				}
			}
		}
		return frames
	}
	f.Add(encodeFrames(make([]Frame, 20)))
	f.Add(encodeFrames(extreme(1e10)))
	f.Add(encodeFrames(extreme(math.MaxFloat64)))

	f.Fuzz(func(t *testing.T, data []byte) {
		frames := fuzzFrames(data)
		if len(frames) == 0 {
			return
		}
		for _, backend := range Backends() {
			sess, err := fittedDetector(t, backend).NewSession()
			if err != nil {
				t.Fatalf("%s: %v", backend, err)
			}
			for i := range frames {
				v, err := sess.Push(&frames[i])
				if err != nil {
					t.Fatalf("%s frame %d: %v", backend, i, err)
				}
				if v.FrameIndex != i {
					t.Fatalf("%s: push %d answered frame %d", backend, i, v.FrameIndex)
				}
				if math.IsNaN(v.Score) && !v.Unsafe {
					t.Fatalf("%s frame %d: NaN score is safe: %+v", backend, i, v)
				}
			}
			i := 0
			allocs := testing.AllocsPerRun(20, func() {
				if _, err := sess.Push(&frames[i%len(frames)]); err != nil {
					t.Fatal(err)
				}
				i++
			})
			if allocs != 0 {
				t.Errorf("%s: warm Push allocates %.1f objects/frame, want 0", backend, allocs)
			}
			sess.Close()
		}
	})
}
