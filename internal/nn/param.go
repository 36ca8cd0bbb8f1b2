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
// pass on two goroutines without changing any gradient. Training is
// garbage-free once warm: each layer grows its activation, cache and
// gradient buffers once and reuses them from sample to sample, and Fit
// drops them when it returns. Inference allocates either per call
// (Network.Forward, the read-only reference) or once per workspace
// (Predictor).
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

// seqBuf is a training sequence buffer that a layer grows once and then
// reuses from sample to sample, so a warm training step allocates
// nothing. rows is the view its last resize handed out.
type seqBuf struct {
	rows [][]float64
	flat []float64
}

// resize points rows at a [t][d] view of the buffer, growing it if it is
// too small, and returns rows. The values are stale: the caller must
// write every one before it reads any.
func (b *seqBuf) resize(t, d int) [][]float64 {
	if cap(b.flat) < t*d {
		b.flat = make([]float64, t*d)
	}
	if cap(b.rows) < t {
		b.rows = make([][]float64, t)
	}
	b.rows = b.rows[:t]
	for i := range b.rows {
		b.rows[i] = b.flat[i*d : (i+1)*d : (i+1)*d]
	}
	return b.rows
}

// zeroed is resize with every value cleared, as seq hands them out.
func (b *seqBuf) zeroed(t, d int) [][]float64 {
	rows := b.resize(t, d)
	clear(b.flat[:t*d])
	return rows
}

// output returns a layer's [t][d] Forward output. In training it is the
// layer's reused buffer b, whose stale values Forward must overwrite; in
// inference it is freshly allocated, so Forward(x, false) writes no layer
// field and stays safe for concurrent use.
func output(b *seqBuf, train bool, t, d int) [][]float64 {
	if !train {
		return seq(t, d)
	}
	return b.resize(t, d)
}

// grow returns s resliced to n elements, reallocated if its capacity is
// short. The elements are stale.
func grow[T any](s []T, n int) []T {
	if cap(s) < n {
		return make([]T, n)
	}
	return s[:n]
}

// Layer is one differentiable stage of a network. Forward consumes a
// [T][Din] sequence and produces a [T'][Dout] sequence; Backward consumes
// the gradient of the loss with respect to the layer output and returns the
// gradient with respect to the layer input, accumulating parameter
// gradients along the way. Layers cache whatever they need between Forward
// and Backward, so a Layer instance must not be shared across goroutines.
//
// Training reuses memory: a training Forward's output and a Backward's
// input gradient are buffers the layer grows once and overwrites on its
// next call of the same kind, so the caller must be done with them by
// then. An inference Forward allocates its output and writes no field of
// the layer.
//
// Every layer also has a twin: a layer that shares its Params (and a
// Dropout's Rng) but keeps its own caches and buffers. Network.Fit runs
// one sample's training Forward on the twin network while the calling
// goroutine runs the previous sample's Backward. Within a mini-batch both
// stages only read W; the forward stage alone draws dropout masks, in
// sample order, and the backward stage alone writes G.
type Layer interface {
	// Forward runs the layer. train toggles training-only behaviour
	// such as dropout masking.
	Forward(x [][]float64, train bool) [][]float64
	// Backward back-propagates gradOut and returns the input gradient,
	// which belongs to the layer until its next Backward.
	Backward(gradOut [][]float64) [][]float64
	// Params returns the layer's learnable parameters (possibly empty).
	Params() []*Param
	// OutDim returns the layer's feature dimensionality given an input
	// dimensionality, used for shape validation when stacking.
	OutDim(inDim int) int

	// twin returns a layer sharing the receiver's Params and dropout
	// Rng, with caches and buffers of its own.
	twin() Layer
	// backward is Backward writing the input gradient into gradIn,
	// shaped like the cached input and zeroed. A nil gradIn skips the
	// input gradient: only the parameter gradients accumulate, exactly
	// as Backward accumulates them.
	backward(gradOut, gradIn [][]float64)
	// newScratch sizes a Predictor's workspace for windows of at most
	// maxT timesteps whose rows have inDim features (nil if the layer
	// needs none).
	newScratch(maxT, inDim int) *scratch
	// infer is Forward(x, false) writing only into s: the same values,
	// in s's rows, or in x's for pass-through layers.
	infer(x [][]float64, s *scratch) [][]float64
}
