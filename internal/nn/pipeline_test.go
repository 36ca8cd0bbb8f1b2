package nn

import (
	"fmt"
	"math"
	"math/rand"
	"testing"
)

// refFit is Fit's schedule written out sample by sample on one goroutine:
// each sample's training Forward, its WeightedCrossEntropyLoss and every
// layer's Backward, one Adam step per batch, validation loss through the
// allocating Forward, and early stopping that restores the best weights.
func refFit(n *Network, train, val []Sample, cfg TrainConfig) FitResult {
	opt := NewAdam(cfg.LR)
	opt.DecayEvery = cfg.DecayEvery
	opt.DecayFactor = cfg.DecayRate
	opt.ClipNorm = cfg.ClipNorm
	params := n.Params()
	idx := make([]int, len(train))
	for i := range idx {
		idx[i] = i
	}
	weight := func(s Sample) float64 {
		if s.Weight == 0 {
			return 1
		}
		return s.Weight
	}
	res := FitResult{BestValLoss: 1e300}
	var best [][]float64
	bad := 0
	for epoch := 1; epoch <= cfg.Epochs; epoch++ {
		cfg.Rng.Shuffle(len(idx), func(i, j int) { idx[i], idx[j] = idx[j], idx[i] })
		var sum float64
		for start := 0; start < len(idx); start += cfg.BatchSize {
			end := min(start+cfg.BatchSize, len(idx))
			for _, i := range idx[start:end] {
				s := train[i]
				loss, grad := WeightedCrossEntropyLoss(n.Forward(s.X, true), s.Y, weight(s))
				sum += loss
				g := [][]float64{grad}
				for l := len(n.Layers) - 1; l >= 0; l-- {
					g = n.Layers[l].Backward(g)
				}
			}
			opt.Step(params, end-start)
		}
		res.FinalLoss = sum / float64(len(train))
		res.Epochs = epoch
		opt.EndEpoch(epoch)
		var valLoss float64
		for _, s := range val {
			loss, _ := WeightedCrossEntropyLoss(n.Forward(s.X, false), s.Y, weight(s))
			valLoss += loss
		}
		valLoss /= float64(len(val))
		if valLoss < res.BestValLoss-1e-6 {
			res.BestValLoss = valLoss
			bad = 0
			best = snapshot(best, params)
		} else if cfg.Patience > 0 {
			if bad++; bad >= cfg.Patience {
				res.StoppedEarly = true
				break
			}
		}
	}
	if best != nil {
		restore(params, best)
	}
	res.FinalLR = opt.LR
	return res
}

// TestFitPipelineMatchesSequential pins Fit's two-goroutine pipeline to
// the sequential schedule bit for bit: same weights, same FitResult, and
// the rng shared by dropout and the epoch shuffle left at the same state.
func TestFitPipelineMatchesSequential(t *testing.T) {
	type family struct {
		build func(rng *rand.Rand) *Network
		t, d  int
	}
	families := map[string]family{
		"stacked-lstm": {func(rng *rand.Rand) *Network {
			return BuildStackedLSTM(rng, StackedLSTMConfig{
				InputDim: 6, LSTMUnits: []int{8, 4}, DenseUnits: 6, NumClasses: 3, Dropout: 0.2,
			})
		}, 5, 6},
		"conv1d": {func(rng *rand.Rand) *Network {
			return BuildConv1D(rng, Conv1DConfig{
				InputDim: 4, ConvUnits: []int{6, 5}, KernelSize: 3, DenseUnits: 5, NumClasses: 2, Dropout: 0.1,
			})
		}, 5, 4},
	}
	for name, f := range families {
		// 71 training samples leave a tail batch at every batch size.
		data := rand.New(rand.NewSource(21))
		samples := make([]Sample, 83)
		for i := range samples {
			samples[i] = Sample{X: randSeq(data, f.t, f.d), Y: data.Intn(2), Weight: []float64{0, 1, 2.5}[i%3]}
		}
		train, val := samples[:71], samples[71:]
		for _, batch := range []int{1, 5, 32} {
			t.Run(fmt.Sprintf("%s/batch=%d", name, batch), func(t *testing.T) {
				rngA, rngB := rand.New(rand.NewSource(5)), rand.New(rand.NewSource(5))
				a, b := f.build(rngA), f.build(rngB)
				cfg := TrainConfig{
					Epochs: 4, BatchSize: batch, LR: 0.01, DecayEvery: 2, DecayRate: 0.5,
					ClipNorm: 1, Patience: 2,
				}
				cfg.Rng = rngA
				got, err := a.Fit(train, val, cfg)
				if err != nil {
					t.Fatal(err)
				}
				cfg.Rng = rngB
				want := refFit(b, train, val, cfg)
				if got != want {
					t.Errorf("FitResult %+v, sequential %+v", got, want)
				}
				pb := b.Params()
				for i, p := range a.Params() {
					for j, w := range p.W {
						if math.Float64bits(w) != math.Float64bits(pb[i].W[j]) {
							t.Fatalf("%s[%d] = %v, sequential %v", p.Name, j, w, pb[i].W[j])
						}
					}
				}
				if x, y := rngA.Int63(), rngB.Int63(); x != y {
					t.Errorf("shared rng's next draw %d, sequential %d", x, y)
				}
			})
		}
	}
}
