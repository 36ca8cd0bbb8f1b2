package nn

import (
	"errors"
	"math/rand"
	"reflect"
)

// Sample is one training example: a [T][D] input window and a class label.
type Sample struct {
	X [][]float64
	Y int
	// Weight scales the sample's loss; 0 means 1.
	Weight float64
}

// Network is a sequential stack of layers ending in a logits layer; the
// softmax is folded into the loss.
type Network struct {
	Layers []Layer

	// lossGrad is the training loss gradient with respect to the logits,
	// one row, reused from sample to sample.
	lossGrad seqBuf
}

// NewNetwork builds a sequential network from layers.
func NewNetwork(layers ...Layer) *Network {
	return &Network{Layers: layers}
}

// Params returns all learnable parameters of the network.
func (n *Network) Params() []*Param {
	var ps []*Param
	for _, l := range n.Layers {
		ps = append(ps, l.Params()...)
	}
	return ps
}

// Forward runs the network on a window, returning the final logits (the
// last layer must reduce to a single timestep). In training the logits
// are a layer's buffer, overwritten by the next training Forward (see
// Layer); in inference they are freshly allocated, and n is only read.
func (n *Network) Forward(x [][]float64, train bool) []float64 {
	for _, l := range n.Layers {
		x = l.Forward(x, train)
	}
	if len(x) == 0 {
		return nil
	}
	return x[len(x)-1]
}

// Predict returns class probabilities for a window (inference mode).
func (n *Network) Predict(x [][]float64) []float64 {
	return Softmax(n.Forward(x, false))
}

// SameShape reports whether n and o stack layers of the same types with
// the same dimensions, so that a Predictor workspace sized for one fits
// the other.
func (n *Network) SameShape(o *Network) bool {
	if len(n.Layers) != len(o.Layers) {
		return false
	}
	for i, l := range n.Layers {
		if !sameShape(l, o.Layers[i]) {
			return false
		}
	}
	return true
}

func sameShape(a, b Layer) bool {
	switch a := a.(type) {
	case *Dense:
		b, ok := b.(*Dense)
		return ok && a.In == b.In && a.Out == b.Out
	case *LSTM:
		b, ok := b.(*LSTM)
		return ok && a.In == b.In && a.Hidden == b.Hidden
	case *Conv1D:
		b, ok := b.(*Conv1D)
		return ok && a.In == b.In && a.Out == b.Out && a.K == b.K
	}
	return reflect.TypeOf(a) == reflect.TypeOf(b)
}

// twin returns a network of n's layers' twins (see Layer).
func (n *Network) twin() *Network {
	layers := make([]Layer, len(n.Layers))
	for i, l := range n.Layers {
		layers[i] = l.twin()
	}
	return NewNetwork(layers...)
}

// dropTrainingState replaces every layer with its twin and drops the loss
// gradient, so n keeps its Params and dropout Rngs and no cache or buffer
// that would keep a training window reachable.
func (n *Network) dropTrainingState() {
	for i, l := range n.Layers {
		n.Layers[i] = l.twin()
	}
	n.lossGrad = seqBuf{}
}

// lowestParamLayer returns the index of the first layer with parameters,
// or len(n.Layers) if none has any.
func (n *Network) lowestParamLayer() int {
	for i, l := range n.Layers {
		if len(l.Params()) > 0 {
			return i
		}
	}
	return len(n.Layers)
}

// backward pushes a logits gradient through the network down to layer
// low, which accumulates only its parameter gradients: its input gradient,
// and every layer below it, has none to feed.
func (n *Network) backward(g [][]float64, low int) {
	for i := len(n.Layers) - 1; i > low; i-- {
		g = n.Layers[i].Backward(g)
	}
	if low < len(n.Layers) {
		n.Layers[low].backward(g, nil)
	}
}

// sampleLoss is one sample's training forward: its weighted loss and the
// loss gradient with respect to the logits, a one-row sequence that net's
// next forwardLoss overwrites. panicked carries a panic out of the
// forward stage's goroutine.
type sampleLoss struct {
	loss     float64
	grad     [][]float64
	panicked any
}

// forwardLoss runs s's training forward on net.
func forwardLoss(net *Network, s *Sample) sampleLoss {
	logits := net.Forward(s.X, true)
	w := s.Weight
	if w == 0 {
		w = 1
	}
	grad := net.lossGrad.resize(1, len(logits))
	loss := weightedCrossEntropyInto(grad[0], logits, s.Y, w)
	return sampleLoss{loss: loss, grad: grad}
}

// forwardJob asks the forward stage for s's training forward on net.
type forwardJob struct {
	net *Network
	s   *Sample
}

func (j forwardJob) run() (r sampleLoss) {
	defer func() {
		if p := recover(); p != nil {
			r.panicked = p
		}
	}()
	return forwardLoss(j.net, j.s)
}

// pipeline is Fit's schedule over one mini-batch: a forward-stage
// goroutine runs sample k+1's training forward on one of nets while the
// caller runs sample k's backward pass on the other. nets are the network
// and its twin, so both stages see the same weights, the forwards draw
// dropout masks in sample order, and the caller accumulates gradients and
// losses in sample order: the sequential loop's arithmetic exactly. A
// network's next forward starts only after its backward has returned, so
// each network's training buffers are free to be overwritten by then.
type pipeline struct {
	nets [2]*Network
	low  int
	jobs chan forwardJob
	done chan sampleLoss
}

func newPipeline(n *Network) *pipeline {
	p := &pipeline{
		nets: [2]*Network{n, n.twin()},
		low:  n.lowestParamLayer(),
		jobs: make(chan forwardJob, 1),
		done: make(chan sampleLoss, 1),
	}
	go func() {
		defer close(p.done)
		for j := range p.jobs {
			p.done <- j.run()
		}
	}()
	return p
}

// stop ends the forward stage and returns once its goroutine has exited.
func (p *pipeline) stop() {
	close(p.jobs)
	for range p.done {
	}
}

// batch accumulates the gradients of train[i] for i in idx and returns
// sum plus their losses, added in sample order. Both stages are idle when
// it returns.
func (p *pipeline) batch(train []Sample, idx []int, sum float64) float64 {
	cur := forwardLoss(p.nets[0], &train[idx[0]])
	for k := range idx {
		more := k+1 < len(idx)
		if more {
			p.jobs <- forwardJob{p.nets[(k+1)%2], &train[idx[k+1]]}
		}
		sum += cur.loss
		p.nets[k%2].backward(cur.grad, p.low)
		if more {
			if cur = <-p.done; cur.panicked != nil {
				panic(cur.panicked)
			}
		}
	}
	return sum
}

// TrainConfig controls Network.Fit.
type TrainConfig struct {
	Epochs     int
	BatchSize  int
	LR         float64
	DecayEvery int     // epochs between LR decays (0 = none)
	DecayRate  float64 // multiplicative decay factor
	ClipNorm   float64 // gradient clip (0 = none)
	// Patience is the early-stopping patience in epochs over validation
	// loss; 0 disables early stopping.
	Patience int
	// Rng shuffles mini-batches. Required.
	Rng *rand.Rand
}

// ErrNoTrainingData is returned when Fit receives an empty training set.
var ErrNoTrainingData = errors.New("nn: no training data")

// FitResult summarizes a training run.
type FitResult struct {
	Epochs       int
	FinalLoss    float64
	BestValLoss  float64
	StoppedEarly bool
	FinalLR      float64
}

// Fit trains the network with Adam + step decay and early stopping on a
// held-out validation set (paper §III). val may be empty, in which case
// early stopping is disabled and training runs all epochs.
//
// Within a mini-batch, one sample's forward pass runs on a second
// goroutine while the caller runs the previous sample's backward pass
// (see Layer); the result is the sequential loop's to the bit. The
// backward pass stops at the lowest layer with parameters, whose input
// gradient nothing reads. Once warm, a training sample allocates nothing.
//
// Fit drops its training state when it returns: each layer is replaced by
// its twin, so the network keeps only its Params and dropout Rngs, and no
// training window stays reachable from it.
func (n *Network) Fit(train, val []Sample, cfg TrainConfig) (FitResult, error) {
	if len(train) == 0 {
		return FitResult{}, ErrNoTrainingData
	}
	if cfg.Rng == nil {
		return FitResult{}, errors.New("nn: TrainConfig.Rng is required")
	}
	if cfg.Epochs <= 0 {
		cfg.Epochs = 10
	}
	if cfg.BatchSize <= 0 {
		cfg.BatchSize = 32
	}
	if cfg.LR <= 0 {
		cfg.LR = 1e-3
	}
	opt := NewAdam(cfg.LR)
	opt.DecayEvery = cfg.DecayEvery
	opt.DecayFactor = cfg.DecayRate
	opt.ClipNorm = cfg.ClipNorm
	params := n.Params()
	defer n.dropTrainingState() // after pipe.stop, deferred below
	pipe := newPipeline(n)
	defer pipe.stop()

	idx := make([]int, len(train))
	for i := range idx {
		idx[i] = i
	}

	res := FitResult{BestValLoss: 1e300}
	var bestWeights [][]float64
	badEpochs := 0

	for epoch := 1; epoch <= cfg.Epochs; epoch++ {
		cfg.Rng.Shuffle(len(idx), func(i, j int) { idx[i], idx[j] = idx[j], idx[i] })
		var epochLoss float64
		for start := 0; start < len(idx); start += cfg.BatchSize {
			end := start + cfg.BatchSize
			if end > len(idx) {
				end = len(idx)
			}
			epochLoss = pipe.batch(train, idx[start:end], epochLoss)
			opt.Step(params, end-start)
		}
		epochLoss /= float64(len(train))
		res.FinalLoss = epochLoss
		res.Epochs = epoch
		opt.EndEpoch(epoch)

		if len(val) > 0 {
			valLoss := n.EvalLoss(val)
			if valLoss < res.BestValLoss-1e-6 {
				res.BestValLoss = valLoss
				badEpochs = 0
				bestWeights = snapshot(bestWeights, params)
			} else if cfg.Patience > 0 {
				badEpochs++
				if badEpochs >= cfg.Patience {
					res.StoppedEarly = true
					break
				}
			}
		}
	}
	if bestWeights != nil {
		restore(params, bestWeights)
	}
	res.FinalLR = opt.LR
	return res, nil
}

// EvalLoss computes the mean cross-entropy over a sample set.
func (n *Network) EvalLoss(samples []Sample) float64 {
	if len(samples) == 0 {
		return 0
	}
	p := n.predictorFor(samples)
	var total float64
	for _, s := range samples {
		w := s.Weight
		if w == 0 {
			w = 1
		}
		total += nll(p.Predict(s.X), s.Y) * w
	}
	return total / float64(len(samples))
}

// Accuracy computes classification accuracy over a sample set.
func (n *Network) Accuracy(samples []Sample) float64 {
	if len(samples) == 0 {
		return 0
	}
	p := n.predictorFor(samples)
	correct := 0
	for _, s := range samples {
		if p.PredictClass(s.X) == s.Y {
			correct++
		}
	}
	return float64(correct) / float64(len(samples))
}

// predictorFor returns a Predictor sized for every window in samples.
func (n *Network) predictorFor(samples []Sample) *Predictor {
	maxT, dim := 0, 0
	for _, s := range samples {
		maxT = max(maxT, len(s.X))
		for _, row := range s.X {
			dim = max(dim, len(row))
		}
	}
	return n.NewPredictor(maxT, dim)
}

// snapshot copies params' weights into dst, reusing its buffers (nil
// allocates them), and returns it.
func snapshot(dst [][]float64, params []*Param) [][]float64 {
	if dst == nil {
		dst = make([][]float64, len(params))
	}
	for i, p := range params {
		dst[i] = append(dst[i][:0], p.W...)
	}
	return dst
}

func restore(params []*Param, weights [][]float64) {
	for i, p := range params {
		copy(p.W, weights[i])
	}
}
