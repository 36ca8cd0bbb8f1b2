package nn

import (
	"math"
	"math/rand"
	"testing"
)

// testNets builds one network per model family at streaming-realistic
// sizes, keyed by name, with the window geometry the predictor will see.
func testNets(rng *rand.Rand) map[string]struct {
	net       *Network
	maxT, dim int
} {
	return map[string]struct {
		net       *Network
		maxT, dim int
	}{
		"stacked-lstm": {
			net: BuildStackedLSTM(rng, StackedLSTMConfig{
				InputDim: 38, LSTMUnits: []int{32, 16}, DenseUnits: 16,
				NumClasses: 16, Dropout: 0.1,
			}),
			maxT: 12, dim: 38,
		},
		"conv1d": {
			net: BuildConv1D(rng, Conv1DConfig{
				InputDim: 14, ConvUnits: []int{24, 12}, KernelSize: 3,
				DenseUnits: 12, NumClasses: 2, Dropout: 0.1,
			}),
			maxT: 5, dim: 14,
		},
		"mlp": {
			net: BuildMLP(rng, MLPConfig{
				InputDim: 5 * 14, Hidden: []int{24}, NumClasses: 2, Dropout: 0.1,
			}),
			maxT: 5, dim: 14,
		},
	}
}

// TestPredictorMatchesForward pins numerical identity between the
// scratch-based inference path and the allocating Forward path, for every
// model family and every window length from 1 frame up to the full window
// (the golden verdicts depend on this being exact, not approximate).
func TestPredictorMatchesForward(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for name, tc := range testNets(rng) {
		t.Run(name, func(t *testing.T) {
			p := tc.net.NewPredictor(tc.maxT, tc.dim)
			minT := 1
			if name == "mlp" {
				// The MLP's first dense layer needs the full flattened
				// window; shorter windows are invalid for it offline too.
				minT = tc.maxT
			}
			for T := minT; T <= tc.maxT; T++ {
				x := randSeq(rng, T, tc.dim)
				want := tc.net.Predict(x)
				got := p.Predict(x)
				if len(got) != len(want) {
					t.Fatalf("T=%d: predictor %d probs vs %d", T, len(got), len(want))
				}
				for i := range want {
					if got[i] != want[i] && !(math.IsNaN(got[i]) && math.IsNaN(want[i])) {
						t.Fatalf("T=%d class %d: predictor %v vs forward %v", T, i, got[i], want[i])
					}
				}
				if gc, wc := p.PredictClass(x), Argmax(tc.net.Forward(x, false)); gc != wc {
					t.Fatalf("T=%d: predictor class %d vs forward %d", T, gc, wc)
				}
			}
			// Repeated calls on reused scratch stay identical (stale
			// buffer contents must never leak into outputs).
			x := randSeq(rng, tc.maxT, tc.dim)
			first := append([]float64(nil), p.Predict(x)...)
			p.Predict(randSeq(rng, tc.maxT, tc.dim)) // dirty the scratch
			again := p.Predict(x)
			for i := range first {
				if first[i] != again[i] {
					t.Fatalf("scratch reuse changed output: %v vs %v", first, again)
				}
			}
		})
	}
}

// TestPredictorZeroAlloc is the layer-level allocation budget: a warm
// Predictor must run a full windowed inference with zero heap allocations
// for every model family.
func TestPredictorZeroAlloc(t *testing.T) {
	rng := rand.New(rand.NewSource(12))
	for name, tc := range testNets(rng) {
		t.Run(name, func(t *testing.T) {
			p := tc.net.NewPredictor(tc.maxT, tc.dim)
			x := randSeq(rng, tc.maxT, tc.dim)
			p.Predict(x) // warm
			allocs := testing.AllocsPerRun(200, func() {
				p.Predict(x)
			})
			if allocs != 0 {
				t.Errorf("%s: warm Predictor.Predict allocates %.1f objects/call, want 0", name, allocs)
			}
		})
	}
}
