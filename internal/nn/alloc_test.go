package nn

import (
	"fmt"
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

// TestPrefixForwardLastMatchesForward pins the split forward pass to the
// whole one: for every window length from 1 to maxT, Prefix over the
// first rows' projections plus ForwardLast on the last row must give
// Network.Forward's logits (a NaN where it has a NaN), and Predictor.
// Forward's bit for bit, NaN payloads included, twice in a row
// (ForwardLast leaves the prefix state as it found it). It covers the
// default stack {32, 16}, a hidden width that is not a multiple of 4,
// three LSTM layers, and windows holding a NaN row. A warm Prefix plus
// ForwardLast allocates nothing.
func TestPrefixForwardLastMatchesForward(t *testing.T) {
	const maxT, dim = 12, 38
	rng := rand.New(rand.NewSource(13))
	for _, units := range [][]int{{32, 16}, {13}, {24, 12, 8}} {
		net := BuildStackedLSTM(rng, StackedLSTMConfig{
			InputDim: dim, LSTMUnits: units, DenseUnits: 16, NumClasses: 16, Dropout: 0.1,
		})
		t.Run(fmt.Sprint(units), func(t *testing.T) {
			p, whole := net.NewPredictor(maxT, dim), net.NewPredictor(maxT, dim)
			if !p.Stepwise() {
				t.Fatal("a stacked-LSTM classifier is not Stepwise")
			}
			first := net.Layers[0].(*LSTM)
			proj := seq(maxT, 4*first.Hidden)
			for _, nanRow := range []int{-1, 0, maxT / 2, maxT - 1} {
				for T := 1; T <= maxT; T++ {
					x := randSeq(rng, T, dim)
					if nanRow >= 0 && nanRow < T {
						x[nanRow][dim/2] = math.NaN()
					}
					for i := range x {
						first.Project(proj[i], x[i])
					}
					want := net.Forward(x, false)
					bits := append([]float64(nil), whole.Forward(x)...)
					p.Prefix(proj[:T-1])
					for rep := 0; rep < 2; rep++ {
						got := p.ForwardLast(proj[T-1])
						for k := range want {
							if got[k] != want[k] && !(math.IsNaN(got[k]) && math.IsNaN(want[k])) {
								t.Fatalf("NaN row %d, T=%d, call %d: logit %d = %v, Network.Forward %v", nanRow, T, rep, k, got[k], want[k])
							}
							if math.Float64bits(got[k]) != math.Float64bits(bits[k]) {
								t.Fatalf("NaN row %d, T=%d, call %d: logit %d bits %x, Predictor.Forward %x",
									nanRow, T, rep, k, math.Float64bits(got[k]), math.Float64bits(bits[k]))
							}
						}
					}
				}
			}
			allocs := testing.AllocsPerRun(100, func() {
				p.Prefix(proj[:maxT-1])
				p.ForwardLast(proj[maxT-1])
			})
			if allocs != 0 {
				t.Errorf("warm Prefix+ForwardLast allocates %.1f objects/call, want 0", allocs)
			}
		})
	}
}

// TestStepwiseNeedsLSTMsThenTakeLast pins which networks Prefix and
// ForwardLast serve: LSTM layers followed by TakeLast, and no other.
func TestStepwiseNeedsLSTMsThenTakeLast(t *testing.T) {
	rng := rand.New(rand.NewSource(14))
	for name, tc := range testNets(rng) {
		if got, want := tc.net.NewPredictor(tc.maxT, tc.dim).Stepwise(), name == "stacked-lstm"; got != want {
			t.Errorf("%s: Stepwise = %v, want %v", name, got, want)
		}
	}
	for name, net := range map[string]*Network{
		"lstm only":        NewNetwork(NewLSTM(rng, 4, 3)),
		"lstm then dense":  NewNetwork(NewLSTM(rng, 4, 3), NewDense(rng, 3, 2)),
		"dense then lstms": NewNetwork(NewDense(rng, 4, 4), NewLSTM(rng, 4, 3), &TakeLast{}),
	} {
		if net.NewPredictor(5, 4).Stepwise() {
			t.Errorf("%s: Stepwise = true, want false", name)
		}
	}
}
