package nn

import (
	"errors"
	"math"
)

// This file is the zero-allocation inference path used by the streaming
// monitor. One-shot inference keeps using Network.Forward(x, false), which
// allocates its outputs and writes no layer field, so it is the read-only
// reference the Predictor is checked against; training reuses per-layer
// buffers instead (see Layer). Long-lived streams hold a Predictor, which
// carries per-layer scratch buffers allocated once and reused on every
// call, so a warm per-frame inference performs no heap allocations at all
// (the property pinned by the allocation-budget tests in alloc_test.go and
// safemon's perf suite).

// scratch is one layer's reusable inference workspace. rows is the output
// sequence buffer (row views into one flat backing array); a, b and c are
// auxiliary vectors for layers that need running state inside a single
// forward (the LSTM's recurrence state, its copy for ForwardLast and its
// pre-activations; the Flatten layer's backing row).
type scratch struct {
	rows    [][]float64
	a, b, c []float64
}

// newSeqScratch builds a scratch whose rows hold up to t rows of width d.
func newSeqScratch(t, d int) *scratch {
	return &scratch{rows: seq(t, d)}
}

// Predictor executes inference forwards through a fixed network with
// preallocated per-layer scratch, so a warm Predictor performs zero heap
// allocations per call. It only ever reads the network's weights — many
// Predictors may share one trained Network — but a single Predictor is not
// safe for concurrent use: create one per stream.
//
// A network made of LSTM layers followed by TakeLast (see Stepwise) can
// also be run in two parts: Prefix runs the recurrence over a window's
// leading rows and keeps its state, and ForwardLast finishes the window
// from that state with one step per LSTM layer on the last row. A stream
// whose next window shares all but its last row with the current one can
// run Prefix before that row arrives.
type Predictor struct {
	net   *Network
	scr   []*scratch
	probs []float64
	// lstms is the number of leading LSTM layers when TakeLast follows
	// them, else 0.
	lstms int
}

// NewPredictor builds a reusable inference workspace for windows of up to
// maxT timesteps with inDim input features. Outputs are numerically
// identical to Network.Forward / Predict on the same window.
func (n *Network) NewPredictor(maxT, inDim int) *Predictor {
	p := &Predictor{net: n, scr: make([]*scratch, len(n.Layers)), lstms: stepwiseDepth(n.Layers)}
	d := inDim
	for i, l := range n.Layers {
		p.scr[i] = l.newScratch(maxT, d)
		if _, isFlatten := l.(*Flatten); isFlatten {
			// Flatten's true output width depends on the runtime window
			// length; maxT*d is its widest possible row.
			d = maxT * d
		} else {
			d = l.OutDim(d)
		}
	}
	p.probs = make([]float64, d)
	return p
}

// stepwiseDepth returns the number of leading LSTM layers when a TakeLast
// layer follows them, and 0 otherwise.
func stepwiseDepth(layers []Layer) int {
	k := 0
	for k < len(layers) {
		if _, ok := layers[k].(*LSTM); !ok {
			break
		}
		k++
	}
	if k == len(layers) {
		return 0
	}
	if _, ok := layers[k].(*TakeLast); !ok {
		return 0
	}
	return k
}

// Share returns a Predictor for o that runs in p's workspace, so one
// stream can score several networks of one shape with a single set of
// scratch buffers. Each call on p or on the returned Predictor overwrites
// the other's outputs, and the two must not run at once. It fails unless
// o has the layer shapes of p's network (see SameShape).
func (p *Predictor) Share(o *Network) (*Predictor, error) {
	if !p.net.SameShape(o) {
		return nil, errors.New("nn: a shared Predictor needs a network of the same layer shapes")
	}
	return &Predictor{net: o, scr: p.scr, probs: p.probs, lstms: p.lstms}, nil
}

// Forward runs the network on a window and returns the final logits. The
// returned slice is scratch-backed and is overwritten by the next call.
func (p *Predictor) Forward(x [][]float64) []float64 {
	return p.forwardFrom(0, x)
}

// Stepwise reports whether the network is LSTM layers followed by
// TakeLast, so that only a window's last row reaches the layers after the
// recurrence and Prefix and ForwardLast can split its forward pass.
func (p *Predictor) Stepwise() bool { return p.lstms > 0 }

// Prefix runs the LSTM layers of a Stepwise network from zero state over
// the leading rows of a window and keeps each layer's final hidden and
// cell state for ForwardLast. The rows come as the first layer's input
// projections: proj[t] must hold what that layer's Project writes for
// row t, so a stream whose windows overlap projects each row once. A
// Prefix of no rows leaves the zero state. It panics unless Stepwise.
func (p *Predictor) Prefix(proj [][]float64) {
	if p.lstms == 0 {
		panic("nn: Prefix needs LSTM layers followed by TakeLast")
	}
	x := p.net.Layers[0].(*LSTM).recur(proj, p.scr[0])
	for i := 1; i < p.lstms; i++ {
		x = p.net.Layers[i].infer(x, p.scr[i])
	}
}

// ForwardLast returns the logits of the window made of the rows the last
// Prefix ran plus one more row, given as its first-layer input
// projection: one recurrence step per LSTM layer from the prefix state,
// then the layers from TakeLast on. The logits are bit-identical to
// Forward on the whole window, since each lane runs the same operations
// in the same order. The step runs on a copy of the prefix state, so
// ForwardLast may run again after it on the same prefix. The returned
// slice is scratch-backed and is overwritten by the next call. It panics
// unless Stepwise.
func (p *Predictor) ForwardLast(proj []float64) []float64 {
	if p.lstms == 0 {
		panic("nn: ForwardLast needs LSTM layers followed by TakeLast")
	}
	var out [][]float64
	for i, x := 0, proj; i < p.lstms; i++ {
		out = p.net.Layers[i].(*LSTM).next(x, i == 0, p.scr[i])
		x = out[0]
	}
	return p.forwardFrom(p.lstms, out)
}

// forwardFrom runs layers[first:] on x, the output of the layer before.
func (p *Predictor) forwardFrom(first int, x [][]float64) []float64 {
	for i := first; i < len(p.net.Layers); i++ {
		x = p.net.Layers[i].infer(x, p.scr[i])
	}
	if len(x) == 0 {
		return nil
	}
	return x[len(x)-1]
}

// Predict returns class probabilities for a window. The returned slice is
// the Predictor's own buffer and is overwritten by the next call.
func (p *Predictor) Predict(x [][]float64) []float64 {
	logits := p.Forward(x)
	return SoftmaxInto(p.probs[:len(logits)], logits)
}

// PredictClass returns the argmax class for a window.
func (p *Predictor) PredictClass(x [][]float64) int {
	return Argmax(p.Forward(x))
}

// ---- per-layer inference implementations ----

func (d *Dense) newScratch(maxT, _ int) *scratch { return newSeqScratch(maxT, d.Out) }

func (d *Dense) infer(x [][]float64, s *scratch) [][]float64 {
	out := s.rows[:len(x)]
	seqDenseInto(out, x, d.Weight.W, d.Bias.W, d.Out, d.In)
	return out
}

func (r *ReLU) newScratch(maxT, inDim int) *scratch { return newSeqScratch(maxT, inDim) }

func (r *ReLU) infer(x [][]float64, s *scratch) [][]float64 {
	if len(x) == 0 {
		return x
	}
	out := s.rows[:len(x)]
	for t := range x {
		ot := out[t][:len(x[t])]
		for i, v := range x[t] {
			if !(v <= 0) { // v > 0, or NaN, which must propagate
				ot[i] = v
			} else {
				ot[i] = 0
			}
		}
		out[t] = ot
	}
	return out
}

// Dropout is identity at inference; no scratch needed.
func (d *Dropout) newScratch(int, int) *scratch                { return nil }
func (d *Dropout) infer(x [][]float64, _ *scratch) [][]float64 { return x }

// TakeLast returns a view of its input; no scratch needed.
func (l *TakeLast) newScratch(int, int) *scratch { return nil }
func (l *TakeLast) infer(x [][]float64, _ *scratch) [][]float64 {
	if len(x) == 0 {
		return x
	}
	return x[len(x)-1:]
}

func (g *GlobalMaxPool) newScratch(_, inDim int) *scratch { return newSeqScratch(1, inDim) }

func (g *GlobalMaxPool) infer(x [][]float64, s *scratch) [][]float64 {
	if len(x) == 0 {
		return x
	}
	d := len(x[0])
	out := s.rows[:1]
	row := out[0][:d]
	for i := 0; i < d; i++ {
		best := x[0][i]
		for t := 1; t < len(x); t++ {
			if v := x[t][i]; v > best || v != v {
				best = v
			}
		}
		row[i] = best
	}
	out[0] = row
	return out
}

func (f *Flatten) newScratch(maxT, inDim int) *scratch {
	// The output row length varies with the runtime window, so the flat
	// backing lives in a and rows[0] is re-sliced from it per call.
	return &scratch{rows: make([][]float64, 1), a: make([]float64, maxT*inDim)}
}

func (f *Flatten) infer(x [][]float64, s *scratch) [][]float64 {
	if len(x) == 0 {
		return x
	}
	tt, d := len(x), len(x[0])
	row := s.a[:tt*d]
	for t := range x {
		copy(row[t*d:(t+1)*d], x[t])
	}
	s.rows[0] = row
	return s.rows
}

func (c *Conv1D) newScratch(maxT, _ int) *scratch { return newSeqScratch(maxT, c.Out) }

func (c *Conv1D) infer(x [][]float64, s *scratch) [][]float64 {
	T := len(x)
	outT := T - c.K + 1
	if outT < 1 {
		outT = 1
	}
	out := s.rows[:outT]
	conv1dInto(out, x, c.Weight.W, c.Bias.W, c.Out, c.In, c.K)
	return out
}

func (l *LSTM) newScratch(maxT, _ int) *scratch {
	H := l.Hidden
	s := newSeqScratch(maxT, H)
	s.a = make([]float64, 2*H) // hidden and cell state after the last row
	s.b = make([]float64, 2*H) // their copy, advanced by next
	s.c = make([]float64, 4*H) // gate pre-activations
	return s
}

// zeroState clears the recurrence state in s and returns its hidden and
// cell vectors.
func (l *LSTM) zeroState(s *scratch) (h, c []float64) {
	clear(s.a)
	return s.a[:l.Hidden], s.a[l.Hidden:]
}

// infer projects each row and advances the recurrence on it, one timestep
// at a time, so the scratch needs one projection row, not one per step.
func (l *LSTM) infer(x [][]float64, s *scratch) [][]float64 {
	out := s.rows[:len(x)]
	h, c := l.zeroState(s)
	for t := range x {
		l.Project(s.c, x[t])
		l.step(s.c, h, c, out[t])
	}
	return out
}

// recur is infer over precomputed input projections (see Project).
// Copying a row's projection into the gate buffer before step continues
// each lane's chain exactly where Project left it, so the outputs are
// bit-identical to infer on the rows that were projected.
func (l *LSTM) recur(proj [][]float64, s *scratch) [][]float64 {
	out := s.rows[:len(proj)]
	h, c := l.zeroState(s)
	for t := range proj {
		copy(s.c, proj[t])
		l.step(s.c, h, c, out[t])
	}
	return out
}

// next advances a copy of the state infer or recur left in s by one
// timestep and returns the new hidden state as a one-row output. x is the
// timestep's input projection when projected, else its input row.
func (l *LSTM) next(x []float64, projected bool, s *scratch) [][]float64 {
	H := l.Hidden
	if projected {
		copy(s.c, x)
	} else {
		l.Project(s.c, x)
	}
	copy(s.b, s.a)
	out := s.rows[:1]
	l.step(s.c, s.b[:H], s.b[H:], out[0])
	return out
}

// step advances the inference recurrence by one timestep. pre holds the
// timestep's input projection on entry and is used as scratch; h and c are
// the hidden and cell state, updated in place, and the new hidden state is
// also written to out.
func (l *LSTM) step(pre, h, c, out []float64) {
	H := l.Hidden
	matvecAccum(pre, l.Wh.W, h, 4*H, H)
	for j := 0; j < H; j++ {
		i := sigmoid(pre[j])
		f := sigmoid(pre[H+j])
		g := math.Tanh(pre[2*H+j])
		o := sigmoid(pre[3*H+j])
		cv := f*c[j] + i*g
		hv := o * math.Tanh(cv)
		c[j] = cv
		h[j] = hv
		out[j] = hv
	}
}
