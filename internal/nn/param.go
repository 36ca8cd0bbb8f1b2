// Package nn is a small, dependency-free neural-network library built for
// this reproduction. It provides the model families used by the paper's
// pipeline — stacked LSTMs for gesture classification and 1D-CNNs / LSTMs
// for erroneous-gesture detection — together with dense layers, dropout,
// ReLU/softmax activations, the Adam optimizer with step-decay learning
// rate, categorical cross-entropy loss, early stopping, and gob-based model
// serialization.
//
// Data model: a sample is a sequence x of shape [T][D] (T timesteps of D
// features). Layers transform sequences; reduction layers (TakeLast,
// GlobalMaxPool, Flatten) collapse the time axis before the classification
// head. Training is sample-wise gradient accumulation over mini-batches,
// which is exact and fast enough for the CPU-scale experiments here; Fit
// overlaps one sample's forward pass with the previous one's backward
// pass on two goroutines without changing any gradient.
package nn

import (
	"math"
	"math/rand"
)

// Param is one learnable tensor, stored flat with an explicit gradient
// buffer that optimizers consume.
//
// A Param may be shared by two layers: Network.Fit trains through the
// network and a twin whose layers hold the same Params (see Layer). Within
// a mini-batch W is read-only, and only the backward stage writes G; the
// optimizer writes both between batches, while neither stage runs.
type Param struct {
	Name string
	W    []float64 // weights, flat
	G    []float64 // accumulated gradient, same length as W
}

// newParam allocates a named parameter of size n.
func newParam(name string, n int) *Param {
	return &Param{Name: name, W: make([]float64, n), G: make([]float64, n)}
}

// ZeroGrad clears the accumulated gradient.
func (p *Param) ZeroGrad() {
	for i := range p.G {
		p.G[i] = 0
	}
}

// glorotInit fills w with Glorot/Xavier-uniform values for a layer with the
// given fan-in and fan-out.
func glorotInit(rng *rand.Rand, w []float64, fanIn, fanOut int) {
	limit := math.Sqrt(6.0 / float64(fanIn+fanOut))
	for i := range w {
		w[i] = (rng.Float64()*2 - 1) * limit
	}
}

// seq allocates a [T][D] sequence.
func seq(t, d int) [][]float64 {
	out := make([][]float64, t)
	buf := make([]float64, t*d)
	for i := range out {
		out[i] = buf[i*d : (i+1)*d : (i+1)*d]
	}
	return out
}

// Layer is one differentiable stage of a network. Forward consumes a
// [T][Din] sequence and produces a [T'][Dout] sequence; Backward consumes
// the gradient of the loss with respect to the layer output and returns the
// gradient with respect to the layer input, accumulating parameter
// gradients along the way. Layers cache whatever they need between Forward
// and Backward, so a Layer instance must not be shared across goroutines.
//
// Every layer also has a twin: a layer that shares its Params (and a
// Dropout's Rng) but keeps its own caches. Network.Fit runs one sample's
// training Forward on the twin network while the calling goroutine runs
// the previous sample's Backward. Within a mini-batch both stages only
// read W; the forward stage alone draws dropout masks, in sample order,
// and the backward stage alone writes G.
type Layer interface {
	// Forward runs the layer. train toggles training-only behaviour
	// such as dropout masking.
	Forward(x [][]float64, train bool) [][]float64
	// Backward back-propagates gradOut and returns the input gradient.
	Backward(gradOut [][]float64) [][]float64
	// Params returns the layer's learnable parameters (possibly empty).
	Params() []*Param
	// OutDim returns the layer's feature dimensionality given an input
	// dimensionality, used for shape validation when stacking.
	OutDim(inDim int) int

	// twin returns a layer sharing the receiver's Params and dropout
	// Rng, with caches of its own.
	twin() Layer
	// backward is Backward writing the input gradient into gradIn,
	// shaped like the cached input and zeroed. A nil gradIn skips the
	// input gradient: only the parameter gradients accumulate, exactly
	// as Backward accumulates them.
	backward(gradOut, gradIn [][]float64)
}
