package nn

import (
	"math"
	"math/rand"
	"testing"
)

// numericalGrad estimates dLoss/dw for one weight via central differences.
func numericalGrad(net *Network, x [][]float64, target int, w *float64) float64 {
	const eps = 1e-5
	orig := *w
	*w = orig + eps
	lossP, _ := CrossEntropyLoss(net.Forward(x, false), target)
	*w = orig - eps
	lossM, _ := CrossEntropyLoss(net.Forward(x, false), target)
	*w = orig
	return (lossP - lossM) / (2 * eps)
}

// checkGradients compares analytic and numeric gradients for every
// parameter of the network on one sample.
func checkGradients(t *testing.T, net *Network, x [][]float64, target int) {
	t.Helper()
	// analytic pass (train mode: Backward needs the caches, which
	// inference-mode Forward intentionally no longer writes)
	for _, p := range net.Params() {
		p.ZeroGrad()
	}
	logits := net.Forward(x, true)
	_, grad := CrossEntropyLoss(logits, target)
	g := [][]float64{grad}
	for i := len(net.Layers) - 1; i >= 0; i-- {
		g = net.Layers[i].Backward(g)
	}
	var worst float64
	var checked int
	for _, p := range net.Params() {
		for i := range p.W {
			// Spot-check a subset for speed on big layers.
			if len(p.W) > 64 && i%7 != 0 {
				continue
			}
			analytic := p.G[i]
			numeric := numericalGrad(net, x, target, &p.W[i])
			diff := math.Abs(analytic - numeric)
			scale := math.Max(1, math.Max(math.Abs(analytic), math.Abs(numeric)))
			rel := diff / scale
			if rel > worst {
				worst = rel
			}
			if rel > 1e-4 {
				t.Errorf("%s[%d]: analytic %.8f vs numeric %.8f (rel %.2g)", p.Name, i, analytic, numeric, rel)
			}
			checked++
		}
	}
	t.Logf("checked %d weights, worst relative error %.2g", checked, worst)
}

func randSeq(rng *rand.Rand, t, d int) [][]float64 {
	x := make([][]float64, t)
	for i := range x {
		x[i] = make([]float64, d)
		for j := range x[i] {
			x[i][j] = rng.NormFloat64()
		}
	}
	return x
}

func TestDenseGradients(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	net := NewNetwork(NewDense(rng, 5, 7), &ReLU{}, &TakeLast{}, NewDense(rng, 7, 3))
	checkGradients(t, net, randSeq(rng, 4, 5), 2)
}

func TestLSTMGradients(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	net := NewNetwork(NewLSTM(rng, 4, 6), &TakeLast{}, NewDense(rng, 6, 3))
	checkGradients(t, net, randSeq(rng, 5, 4), 1)
}

func TestStackedLSTMGradients(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	net := NewNetwork(NewLSTM(rng, 3, 5), NewLSTM(rng, 5, 4), &TakeLast{}, NewDense(rng, 4, 2))
	checkGradients(t, net, randSeq(rng, 6, 3), 0)
}

func TestConv1DGradients(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	net := NewNetwork(NewConv1D(rng, 4, 6, 3), &ReLU{}, &GlobalMaxPool{}, NewDense(rng, 6, 3))
	checkGradients(t, net, randSeq(rng, 8, 4), 2)
}

func TestStackedConvGradients(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	net := NewNetwork(
		NewConv1D(rng, 3, 5, 3), &ReLU{},
		NewConv1D(rng, 5, 4, 2), &ReLU{},
		&GlobalMaxPool{}, NewDense(rng, 4, 2),
	)
	checkGradients(t, net, randSeq(rng, 9, 3), 1)
}

func TestFlattenMLPGradients(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	net := NewNetwork(&Flatten{}, NewDense(rng, 12, 8), &ReLU{}, NewDense(rng, 8, 4))
	checkGradients(t, net, randSeq(rng, 3, 4), 3)
}
