package nn

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"math"
	"math/rand"
	"runtime"
	"sync/atomic"
	"testing"
	"time"
)

// goldenNets are the two network families the training tests fit: a
// stacked LSTM with dropout (the gesture classifier's shape) and a Conv1D
// head with dropout (an error head's shape), each with the window lengths
// its samples take. Windows vary in length, so a training buffer that
// keeps a longer window's rows is read back by a shorter one.
var goldenNets = map[string]struct {
	build               func(rng *rand.Rand) *Network
	minT, maxT, classes int
	dim                 int
}{
	"stacked-lstm": {func(rng *rand.Rand) *Network {
		return BuildStackedLSTM(rng, StackedLSTMConfig{
			InputDim: 6, LSTMUnits: []int{8, 5}, DenseUnits: 6, NumClasses: 3, Dropout: 0.25,
		})
	}, 3, 9, 3, 6},
	"conv1d": {func(rng *rand.Rand) *Network {
		return BuildConv1D(rng, Conv1DConfig{
			InputDim: 4, ConvUnits: []int{6, 5}, KernelSize: 3, DenseUnits: 5, NumClasses: 2, Dropout: 0.1,
		})
	}, 2, 8, 2, 4},
}

// goldenSamples draws n samples of random length in [minT, maxT].
func goldenSamples(rng *rand.Rand, n, minT, maxT, dim, classes int) []Sample {
	out := make([]Sample, n)
	for i := range out {
		T := minT + rng.Intn(maxT-minT+1)
		out[i] = Sample{X: randSeq(rng, T, dim), Y: rng.Intn(classes), Weight: []float64{0, 1, 1.5}[i%3]}
	}
	return out
}

// weightsHash is the SHA-256 of every Param.W bit of n, in Params order.
func weightsHash(n *Network) string {
	h := sha256.New()
	var b [8]byte
	for _, p := range n.Params() {
		for _, w := range p.W {
			binary.LittleEndian.PutUint64(b[:], math.Float64bits(w))
			h.Write(b[:])
		}
	}
	return hex.EncodeToString(h.Sum(nil))
}

// TestFitWeightsGolden pins the trained weights of a fixed-seed Fit to
// hashes recorded before training reused its buffers. Unlike
// TestFitPipelineMatchesSequential, whose reference loop runs the same
// layers' Forward and Backward, it compares against the arithmetic of an
// older build, so a reused buffer that is not cleared fails it.
func TestFitWeightsGolden(t *testing.T) {
	if runtime.GOOS != "linux" || runtime.GOARCH != "amd64" {
		t.Skip("hashes recorded on linux/amd64; other targets may fuse multiply-adds")
	}
	want := map[string]string{
		"stacked-lstm": "8a61e72287b5fee670e48c965116db954e9961dc2c06d0f1741d0a4cfea0b269",
		"conv1d":       "f7b2b9eeea19d9dfee2002fdef3a3936cfb0e439b06af2a38429b0dcc7cff9e2",
	}
	for name, f := range goldenNets {
		t.Run(name, func(t *testing.T) {
			rng := rand.New(rand.NewSource(31))
			net := f.build(rng)
			samples := goldenSamples(rand.New(rand.NewSource(32)), 90, f.minT, f.maxT, f.dim, f.classes)
			_, err := net.Fit(samples[:75], samples[75:], TrainConfig{
				Epochs: 5, BatchSize: 8, LR: 0.01, DecayEvery: 2, DecayRate: 0.5,
				ClipNorm: 1, Patience: 3, Rng: rng,
			})
			if err != nil {
				t.Fatal(err)
			}
			if got := weightsHash(net); got != want[name] {
				t.Errorf("trained weights hash %s, want %s", got, want[name])
			}
		})
	}
}

// TestTrainingSampleZeroAlloc pins garbage-free training: once warm, a
// training sample's forward and loss, then its backward pass, allocate
// nothing, on a network and on its twin, as Fit's pipeline runs them,
// over windows of two lengths.
func TestTrainingSampleZeroAlloc(t *testing.T) {
	for name, f := range goldenNets {
		t.Run(name, func(t *testing.T) {
			rng := rand.New(rand.NewSource(41))
			net := f.build(rng)
			nets, low := []*Network{net, net.twin()}, net.lowestParamLayer()
			samples := []Sample{
				{X: randSeq(rng, f.maxT, f.dim), Y: 1},
				{X: randSeq(rng, f.minT, f.dim), Y: 0, Weight: 2},
			}
			step := func() {
				for i := range samples {
					for _, n := range nets {
						n.backward(forwardLoss(n, &samples[i]).grad, low)
					}
				}
			}
			step() // warm: every buffer grows to its largest window
			if allocs := testing.AllocsPerRun(50, step); allocs != 0 {
				t.Errorf("warm training step allocates %.1f objects, want 0", allocs)
			}
		})
	}
}

// TestFitDropsTrainingState checks that a fitted network keeps no
// training window reachable: once Fit returns and the caller drops its
// samples, a finalizer on every sample's backing array runs while the
// network itself is still alive.
func TestFitDropsTrainingState(t *testing.T) {
	for name, f := range goldenNets {
		t.Run(name, func(t *testing.T) {
			rng := rand.New(rand.NewSource(51))
			net := f.build(rng)
			const n = 12
			var finalized atomic.Int32
			train := make([]Sample, n)
			for i := range train {
				flat := make([]float64, f.maxT*f.dim)
				for j := range flat {
					flat[j] = rng.NormFloat64()
				}
				x := make([][]float64, f.maxT)
				for r := range x {
					x[r] = flat[r*f.dim : (r+1)*f.dim]
				}
				runtime.SetFinalizer(&flat[0], func(*float64) { finalized.Add(1) })
				train[i] = Sample{X: x, Y: i % 2}
			}
			if _, err := net.Fit(train, nil, TrainConfig{Epochs: 1, BatchSize: 4, Rng: rng}); err != nil {
				t.Fatal(err)
			}
			train = nil
			for deadline := time.Now().Add(5 * time.Second); finalized.Load() < n && time.Now().Before(deadline); {
				runtime.GC()
				time.Sleep(time.Millisecond)
			}
			if got := finalized.Load(); got != n {
				t.Errorf("%d of %d training windows still reachable after Fit", n-got, n)
			}
			runtime.KeepAlive(net)
		})
	}
}
