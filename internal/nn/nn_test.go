package nn

import (
	"bytes"
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestSoftmaxNormalizes(t *testing.T) {
	f := func(a, b, c float64) bool {
		// bound inputs to avoid Inf inputs from quick
		for _, v := range []float64{a, b, c} {
			if math.IsNaN(v) || math.IsInf(v, 0) {
				return true
			}
		}
		p := Softmax([]float64{a, b, c})
		var sum float64
		for _, v := range p {
			if v < 0 || v > 1 || math.IsNaN(v) {
				return false
			}
			sum += v
		}
		return math.Abs(sum-1) < 1e-9
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestSoftmaxStability(t *testing.T) {
	p := Softmax([]float64{1e8, 1e8 + 1, 1e8 - 1})
	if math.IsNaN(p[0]) || p[1] < p[0] || p[1] < p[2] {
		t.Errorf("softmax unstable on large logits: %v", p)
	}
}

func TestCrossEntropyGradientSums(t *testing.T) {
	f := func(a, b float64) bool {
		if math.Abs(a) > 50 || math.Abs(b) > 50 || math.IsNaN(a) || math.IsNaN(b) {
			return true
		}
		_, grad := CrossEntropyLoss([]float64{a, b, 0}, 1)
		var sum float64
		for _, g := range grad {
			sum += g
		}
		// softmax grad minus one-hot sums to zero
		return math.Abs(sum) < 1e-9
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestArgmax(t *testing.T) {
	cases := []struct {
		in   []float64
		want int
	}{
		{nil, -1},
		{[]float64{3}, 0},
		{[]float64{1, 5, 2}, 1},
		{[]float64{-1, -5, -2}, 0},
		{[]float64{1, 1, 1}, 0}, // first wins ties
	}
	for _, c := range cases {
		if got := Argmax(c.in); got != c.want {
			t.Errorf("Argmax(%v) = %d, want %d", c.in, got, c.want)
		}
	}
}

func TestDenseShapes(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	d := NewDense(rng, 3, 5)
	out := d.Forward(randSeq(rng, 7, 3), false)
	if len(out) != 7 || len(out[0]) != 5 {
		t.Fatalf("dense output shape [%d][%d], want [7][5]", len(out), len(out[0]))
	}
}

func TestConv1DShapes(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	c := NewConv1D(rng, 3, 4, 3)
	out := c.Forward(randSeq(rng, 10, 3), false)
	if len(out) != 8 || len(out[0]) != 4 {
		t.Fatalf("conv output shape [%d][%d], want [8][4]", len(out), len(out[0]))
	}
	// shorter-than-kernel input degrades to one step
	out = c.Forward(randSeq(rng, 2, 3), false)
	if len(out) != 1 {
		t.Fatalf("short input gave %d steps, want 1", len(out))
	}
}

func TestDropoutInference(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	d := NewDropout(rng, 0.5)
	x := randSeq(rng, 4, 6)
	out := d.Forward(x, false)
	for i := range x {
		for j := range x[i] {
			if out[i][j] != x[i][j] {
				t.Fatal("dropout must be identity at inference")
			}
		}
	}
}

func TestDropoutTrainingMasks(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	d := NewDropout(rng, 0.5)
	x := randSeq(rng, 20, 20)
	out := d.Forward(x, true)
	zeros := 0
	for i := range out {
		for j := range out[i] {
			if out[i][j] == 0 {
				zeros++
			}
		}
	}
	if zeros < 100 || zeros > 300 {
		t.Errorf("dropout p=0.5 zeroed %d/400, expected ~200", zeros)
	}
}

func TestGlobalMaxPool(t *testing.T) {
	g := &GlobalMaxPool{}
	x := [][]float64{{1, 5}, {3, 2}, {2, 4}}
	out := g.Forward(x, true) // train mode: the test exercises Backward
	if out[0][0] != 3 || out[0][1] != 5 {
		t.Fatalf("got %v, want [3 5]", out[0])
	}
	grad := g.Backward([][]float64{{1, 1}})
	if grad[1][0] != 1 || grad[0][1] != 1 || grad[0][0] != 0 {
		t.Fatalf("maxpool gradient routed wrong: %v", grad)
	}
}

func TestFitLearnsXORLikeTask(t *testing.T) {
	// Two interleaved classes distinguishable by the sign product of two
	// features — requires a hidden layer.
	rng := rand.New(rand.NewSource(11))
	var samples []Sample
	for i := 0; i < 400; i++ {
		a, b := rng.NormFloat64(), rng.NormFloat64()
		y := 0
		if a*b > 0 {
			y = 1
		}
		samples = append(samples, Sample{X: [][]float64{{a, b}}, Y: y})
	}
	net := NewNetwork(NewDense(rng, 2, 16), &ReLU{}, &TakeLast{}, NewDense(rng, 16, 2))
	_, err := net.Fit(samples[:320], samples[320:], TrainConfig{
		Epochs: 40, BatchSize: 16, LR: 0.01, Patience: 10, Rng: rng,
	})
	if err != nil {
		t.Fatal(err)
	}
	acc := net.Accuracy(samples[320:])
	if acc < 0.85 {
		t.Errorf("XOR-like accuracy %.3f < 0.85", acc)
	}
}

func TestFitLearnsSequencePattern(t *testing.T) {
	// Class 1 sequences trend upward, class 0 downward: requires temporal
	// integration, exercising the LSTM path.
	rng := rand.New(rand.NewSource(12))
	var samples []Sample
	for i := 0; i < 300; i++ {
		y := i % 2
		slope := 0.3
		if y == 0 {
			slope = -0.3
		}
		x := make([][]float64, 8)
		for t0 := range x {
			x[t0] = []float64{slope*float64(t0) + rng.NormFloat64()*0.3}
		}
		samples = append(samples, Sample{X: x, Y: y})
	}
	net := BuildStackedLSTM(rng, StackedLSTMConfig{InputDim: 1, LSTMUnits: []int{8}, DenseUnits: 8, NumClasses: 2})
	_, err := net.Fit(samples[:240], samples[240:], TrainConfig{
		Epochs: 25, BatchSize: 16, LR: 0.01, Patience: 8, ClipNorm: 5, Rng: rng,
	})
	if err != nil {
		t.Fatal(err)
	}
	if acc := net.Accuracy(samples[240:]); acc < 0.9 {
		t.Errorf("sequence accuracy %.3f < 0.9", acc)
	}
}

func TestEarlyStoppingRestoresBestWeights(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	var samples []Sample
	for i := 0; i < 60; i++ {
		x := randSeq(rng, 1, 3)
		samples = append(samples, Sample{X: x, Y: i % 2})
	}
	net := NewNetwork(NewDense(rng, 3, 4), &TakeLast{}, NewDense(rng, 4, 2))
	res, err := net.Fit(samples[:40], samples[40:], TrainConfig{
		Epochs: 30, BatchSize: 8, LR: 0.05, Patience: 3, Rng: rng,
	})
	if err != nil {
		t.Fatal(err)
	}
	// Random labels: val loss can't improve for long, so early stopping
	// must fire well before 30 epochs.
	if !res.StoppedEarly && res.Epochs == 30 {
		t.Log("training ran to completion on random labels (acceptable but unusual)")
	}
	got := net.EvalLoss(samples[40:])
	if got > res.BestValLoss+0.2 {
		t.Errorf("restored val loss %.4f much worse than best %.4f", got, res.BestValLoss)
	}
}

func TestAdamStepDecay(t *testing.T) {
	opt := NewAdam(0.1)
	opt.DecayEvery = 2
	opt.DecayFactor = 0.5
	opt.EndEpoch(1)
	if opt.LR != 0.1 {
		t.Fatalf("LR changed too early: %v", opt.LR)
	}
	opt.EndEpoch(2)
	if opt.LR != 0.05 {
		t.Fatalf("LR after decay %v, want 0.05", opt.LR)
	}
}

func TestAdamReducesLoss(t *testing.T) {
	rng := rand.New(rand.NewSource(14))
	net := NewNetwork(NewDense(rng, 2, 2), &TakeLast{})
	x := [][]float64{{1, -1}}
	before := net.EvalLoss([]Sample{{X: x, Y: 0}})
	opt := NewAdam(0.05)
	for i := 0; i < 50; i++ {
		logits := net.Forward(x, true)
		_, grad := CrossEntropyLoss(logits, 0)
		g := [][]float64{grad}
		for j := len(net.Layers) - 1; j >= 0; j-- {
			g = net.Layers[j].Backward(g)
		}
		opt.Step(net.Params(), 1)
	}
	after := net.EvalLoss([]Sample{{X: x, Y: 0}})
	if after >= before {
		t.Errorf("Adam failed to reduce loss: %.4f -> %.4f", before, after)
	}
}

func TestSerializationRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(15))
	net := BuildConv1D(rng, Conv1DConfig{InputDim: 4, ConvUnits: []int{6, 5}, KernelSize: 3, DenseUnits: 8, NumClasses: 3, Dropout: 0.2})
	x := randSeq(rng, 10, 4)
	want := net.Predict(x)

	var buf bytes.Buffer
	if err := net.Encode(&buf); err != nil {
		t.Fatal(err)
	}
	got, err := DecodeNetwork(&buf, rand.New(rand.NewSource(16)))
	if err != nil {
		t.Fatal(err)
	}
	gotP := got.Predict(x)
	for i := range want {
		if math.Abs(want[i]-gotP[i]) > 1e-12 {
			t.Fatalf("prediction changed after round trip: %v vs %v", want, gotP)
		}
	}
}

func TestFitRequiresRngAndData(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	net := NewNetwork(NewDense(rng, 2, 2), &TakeLast{})
	if _, err := net.Fit(nil, nil, TrainConfig{Rng: rng}); err == nil {
		t.Error("expected error for empty training data")
	}
	s := []Sample{{X: [][]float64{{1, 2}}, Y: 0}}
	if _, err := net.Fit(s, nil, TrainConfig{}); err == nil {
		t.Error("expected error for missing rng")
	}
}
