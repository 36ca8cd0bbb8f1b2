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

// prepares returns how many times the schedule calls Prepare before push
// i: its two bits for that push, 0 to 3, with 3 read as 2. The schedule
// repeats every 32 pushes.
func prepares(schedule uint64, i int) int {
	return min(int(schedule>>(2*(i%32))&3), 2)
}

// Prepare schedules for the fuzz seeds: 0, 1 and 2 calls before every
// push, and 1 call before every other push.
const (
	neverPrepare       = 0
	alwaysPrepare      = 0x5555555555555555
	twicePrepare       = 0xaaaaaaaaaaaaaaaa
	alternatingPrepare = 0x1111111111111111
)

// FuzzSessionPush drives arbitrary finite frames through two fresh
// sessions of every registered backend, on the fitted fixtures: one that
// never prepares, and one that calls Prepare 0, 1 or 2 times before each
// Push as the schedule's bits say. Push must neither panic nor fail,
// every verdict must carry its frame's index, a NaN score must be unsafe,
// and the prepared session's verdicts must equal the unprepared one's in
// every field, the score bit for bit. A warm Push, and a warm Prepare
// plus Push, must not allocate. The seeds are a fold trajectory, all-zero
// frames, ±1e10 mixed in sign, and ±math.MaxFloat64, each with the never,
// always, twice and alternating schedules. `make fuzz-replay` (part of
// `make ci`) replays them.
func FuzzSessionPush(f *testing.F) {
	for _, backend := range Backends() {
		fittedDetector(f, backend)
	}
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
	for _, data := range [][]Frame{testFold(f).Test[0].Frames, make([]Frame, 20), extreme(1e10), extreme(math.MaxFloat64)} {
		for _, schedule := range []uint64{neverPrepare, alwaysPrepare, twicePrepare, alternatingPrepare} {
			f.Add(encodeFrames(data), schedule)
		}
	}

	f.Fuzz(func(t *testing.T, data []byte, schedule uint64) {
		frames := fuzzFrames(data)
		if len(frames) == 0 {
			return
		}
		for _, backend := range Backends() {
			det := fittedDetector(t, backend)
			ref, err := det.NewSession()
			if err != nil {
				t.Fatalf("%s: %v", backend, err)
			}
			sess, err := det.NewSession()
			if err != nil {
				t.Fatalf("%s: %v", backend, err)
			}
			for i := range frames {
				want, err := ref.Push(&frames[i])
				if err != nil {
					t.Fatalf("%s frame %d: %v", backend, i, err)
				}
				for n := prepares(schedule, i); n > 0; n-- {
					sess.Prepare()
				}
				v, err := sess.Push(&frames[i])
				if err != nil {
					t.Fatalf("%s frame %d: prepared session: %v", backend, i, err)
				}
				if v.FrameIndex != i {
					t.Fatalf("%s: push %d answered frame %d", backend, i, v.FrameIndex)
				}
				if math.IsNaN(v.Score) && !v.Unsafe {
					t.Fatalf("%s frame %d: NaN score is safe: %+v", backend, i, v)
				}
				if v.FrameIndex != want.FrameIndex || v.Gesture != want.Gesture || v.Unsafe != want.Unsafe ||
					math.Float64bits(v.Score) != math.Float64bits(want.Score) {
					t.Fatalf("%s frame %d, %d prepares: verdict %+v, never-prepared %+v", backend, i, prepares(schedule, i), v, want)
				}
			}
			i := 0
			allocs := testing.AllocsPerRun(20, func() {
				if _, err := ref.Push(&frames[i%len(frames)]); err != nil {
					t.Fatal(err)
				}
				i++
			})
			if allocs != 0 {
				t.Errorf("%s: warm Push allocates %.1f objects/frame, want 0", backend, allocs)
			}
			allocs = testing.AllocsPerRun(20, func() {
				sess.Prepare()
				if _, err := sess.Push(&frames[i%len(frames)]); err != nil {
					t.Fatal(err)
				}
				i++
			})
			if allocs != 0 {
				t.Errorf("%s: warm Prepare plus Push allocates %.1f objects/frame, want 0", backend, allocs)
			}
			ref.Close()
			sess.Close()
		}
	})
}
