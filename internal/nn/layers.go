package nn

import "math/rand"

// Dense is a fully connected layer applied independently to every timestep:
// y_t = W x_t + b.
type Dense struct {
	In, Out int
	Weight  *Param // Out x In, row major
	Bias    *Param // Out

	lastIn      [][]float64
	out, gradIn seqBuf
}

var _ Layer = (*Dense)(nil)

// NewDense constructs a dense layer with Glorot-initialized weights.
func NewDense(rng *rand.Rand, in, out int) *Dense {
	d := &Dense{
		In:     in,
		Out:    out,
		Weight: newParam("dense.W", in*out),
		Bias:   newParam("dense.b", out),
	}
	glorotInit(rng, d.Weight.W, in, out)
	return d
}

// Forward implements Layer. Caches for Backward are only written in train
// mode, so inference is read-only and safe for concurrent use.
func (d *Dense) Forward(x [][]float64, train bool) [][]float64 {
	if train {
		d.lastIn = x
	}
	out := output(&d.out, train, len(x), d.Out)
	seqDenseInto(out, x, d.Weight.W, d.Bias.W, d.Out, d.In)
	return out
}

// Backward implements Layer.
func (d *Dense) Backward(gradOut [][]float64) [][]float64 {
	gradIn := d.gradIn.zeroed(len(gradOut), d.In)
	d.backward(gradOut, gradIn)
	return gradIn
}

// backward implements Layer.
func (d *Dense) backward(gradOut, gradIn [][]float64) {
	for t, gt := range gradOut {
		xt := d.lastIn[t]
		for o, g := range gt[:d.Out] {
			if g == 0 {
				continue
			}
			d.Bias.G[o] += g
			gRow := d.Weight.G[o*d.In : (o+1)*d.In]
			if gradIn == nil {
				axpy(gRow, g, xt)
			} else {
				axpy2(gRow, xt, gradIn[t], d.Weight.W[o*d.In:(o+1)*d.In], g)
			}
		}
	}
}

// Params implements Layer.
func (d *Dense) Params() []*Param { return []*Param{d.Weight, d.Bias} }

// twin implements Layer.
func (d *Dense) twin() Layer { return &Dense{In: d.In, Out: d.Out, Weight: d.Weight, Bias: d.Bias} }

// OutDim implements Layer.
func (d *Dense) OutDim(int) int { return d.Out }

// ReLU is the rectified linear activation applied elementwise. A NaN
// passes through, so arithmetic that broke upstream is never turned into
// a finite activation.
type ReLU struct {
	lastIn      [][]float64
	out, gradIn seqBuf
}

var _ Layer = (*ReLU)(nil)

// Forward implements Layer.
func (r *ReLU) Forward(x [][]float64, train bool) [][]float64 {
	if train {
		r.lastIn = x
	}
	if len(x) == 0 {
		return x
	}
	out := output(&r.out, train, len(x), len(x[0]))
	for t := range x {
		for i, v := range x[t] {
			if !(v <= 0) { // v > 0, or NaN, which must propagate
				out[t][i] = v
			} else {
				out[t][i] = 0
			}
		}
	}
	return out
}

// Backward implements Layer.
func (r *ReLU) Backward(gradOut [][]float64) [][]float64 {
	if len(gradOut) == 0 {
		return gradOut
	}
	gradIn := r.gradIn.zeroed(len(gradOut), len(gradOut[0]))
	r.backward(gradOut, gradIn)
	return gradIn
}

// backward implements Layer.
func (r *ReLU) backward(gradOut, gradIn [][]float64) {
	for t := range gradIn {
		for i := range gradOut[t] {
			if r.lastIn[t][i] > 0 {
				gradIn[t][i] = gradOut[t][i]
			}
		}
	}
}

// Params implements Layer.
func (r *ReLU) Params() []*Param { return nil }

// twin implements Layer.
func (r *ReLU) twin() Layer { return &ReLU{} }

// OutDim implements Layer.
func (r *ReLU) OutDim(in int) int { return in }

// Dropout zeroes each activation with probability P during training and
// scales survivors by 1/(1-P) (inverted dropout), so inference is identity.
type Dropout struct {
	P   float64
	Rng *rand.Rand

	// mask is the last training Forward's mask, a view of maskBuf, or nil
	// when that Forward dropped nothing.
	mask                 [][]float64
	out, maskBuf, gradIn seqBuf
}

var _ Layer = (*Dropout)(nil)

// NewDropout constructs a dropout layer with drop probability p.
func NewDropout(rng *rand.Rand, p float64) *Dropout {
	return &Dropout{P: p, Rng: rng}
}

// Forward implements Layer. Inference leaves the layer untouched (identity).
func (d *Dropout) Forward(x [][]float64, train bool) [][]float64 {
	if !train || d.P <= 0 {
		if train {
			d.mask = nil
		}
		return x
	}
	keep := 1 - d.P
	out := d.out.resize(len(x), len(x[0]))
	d.mask = d.maskBuf.resize(len(x), len(x[0]))
	for t := range x {
		for i, v := range x[t] {
			if d.Rng.Float64() < keep {
				m := 1 / keep
				d.mask[t][i] = m
				out[t][i] = v * m
			} else {
				d.mask[t][i] = 0
				out[t][i] = 0
			}
		}
	}
	return out
}

// Backward implements Layer.
func (d *Dropout) Backward(gradOut [][]float64) [][]float64 {
	if d.mask == nil {
		return gradOut
	}
	gradIn := d.gradIn.zeroed(len(gradOut), len(gradOut[0]))
	d.backward(gradOut, gradIn)
	return gradIn
}

// backward implements Layer.
func (d *Dropout) backward(gradOut, gradIn [][]float64) {
	for t := range gradIn {
		if d.mask == nil {
			copy(gradIn[t], gradOut[t])
			continue
		}
		for i := range gradOut[t] {
			gradIn[t][i] = gradOut[t][i] * d.mask[t][i]
		}
	}
}

// Params implements Layer.
func (d *Dropout) Params() []*Param { return nil }

// twin implements Layer.
func (d *Dropout) twin() Layer { return &Dropout{P: d.P, Rng: d.Rng} }

// OutDim implements Layer.
func (d *Dropout) OutDim(in int) int { return in }

// TakeLast reduces a sequence to its final timestep: [T][D] -> [1][D].
// It is the standard readout for sequence classification with LSTMs.
type TakeLast struct {
	lastT  int
	gradIn seqBuf
}

var _ Layer = (*TakeLast)(nil)

// Forward implements Layer.
func (l *TakeLast) Forward(x [][]float64, train bool) [][]float64 {
	if train {
		l.lastT = len(x)
	}
	if len(x) == 0 {
		return x
	}
	return x[len(x)-1:]
}

// Backward implements Layer.
func (l *TakeLast) Backward(gradOut [][]float64) [][]float64 {
	gradIn := l.gradIn.zeroed(l.lastT, len(gradOut[0]))
	l.backward(gradOut, gradIn)
	return gradIn
}

// backward implements Layer.
func (l *TakeLast) backward(gradOut, gradIn [][]float64) {
	if len(gradIn) > 0 {
		copy(gradIn[len(gradIn)-1], gradOut[0])
	}
}

// Params implements Layer.
func (l *TakeLast) Params() []*Param { return nil }

// twin implements Layer.
func (l *TakeLast) twin() Layer { return &TakeLast{} }

// OutDim implements Layer.
func (l *TakeLast) OutDim(in int) int { return in }

// GlobalMaxPool reduces a sequence by taking the per-feature maximum over
// time: [T][D] -> [1][D]. It is the readout used after the Conv1D stack.
// A NaN anywhere in a feature's column is that feature's maximum.
type GlobalMaxPool struct {
	argmax      []int
	lastT       int
	out, gradIn seqBuf
}

var _ Layer = (*GlobalMaxPool)(nil)

// Forward implements Layer.
func (g *GlobalMaxPool) Forward(x [][]float64, train bool) [][]float64 {
	if len(x) == 0 {
		if train {
			g.lastT = 0
		}
		return x
	}
	d := len(x[0])
	out := output(&g.out, train, 1, d)
	if train {
		g.lastT = len(x)
		g.argmax = grow(g.argmax, d)
	}
	for i := 0; i < d; i++ {
		best, bestT := x[0][i], 0
		for t := 1; t < len(x); t++ {
			if v := x[t][i]; v > best || v != v {
				best, bestT = v, t
			}
		}
		out[0][i] = best
		if train {
			g.argmax[i] = bestT
		}
	}
	return out
}

// Backward implements Layer.
func (g *GlobalMaxPool) Backward(gradOut [][]float64) [][]float64 {
	gradIn := g.gradIn.zeroed(g.lastT, len(gradOut[0]))
	g.backward(gradOut, gradIn)
	return gradIn
}

// backward implements Layer.
func (g *GlobalMaxPool) backward(gradOut, gradIn [][]float64) {
	if gradIn == nil {
		return
	}
	for i, v := range gradOut[0] {
		gradIn[g.argmax[i]][i] = v
	}
}

// Params implements Layer.
func (g *GlobalMaxPool) Params() []*Param { return nil }

// twin implements Layer.
func (g *GlobalMaxPool) twin() Layer { return &GlobalMaxPool{} }

// OutDim implements Layer.
func (g *GlobalMaxPool) OutDim(in int) int { return in }

// Flatten concatenates all timesteps into a single feature vector:
// [T][D] -> [1][T*D]. The sequence length must be fixed across samples.
type Flatten struct {
	lastT, lastD int
	out, gradIn  seqBuf
}

var _ Layer = (*Flatten)(nil)

// Forward implements Layer.
func (f *Flatten) Forward(x [][]float64, train bool) [][]float64 {
	if len(x) == 0 {
		return x
	}
	tt, d := len(x), len(x[0])
	if train {
		f.lastT, f.lastD = tt, d
	}
	out := output(&f.out, train, 1, tt*d)
	for t := range x {
		copy(out[0][t*d:(t+1)*d], x[t])
	}
	return out
}

// Backward implements Layer.
func (f *Flatten) Backward(gradOut [][]float64) [][]float64 {
	gradIn := f.gradIn.zeroed(f.lastT, f.lastD)
	f.backward(gradOut, gradIn)
	return gradIn
}

// backward implements Layer.
func (f *Flatten) backward(gradOut, gradIn [][]float64) {
	for t := range gradIn {
		copy(gradIn[t], gradOut[0][t*f.lastD:(t+1)*f.lastD])
	}
}

// Params implements Layer.
func (f *Flatten) Params() []*Param { return nil }

// twin implements Layer.
func (f *Flatten) twin() Layer { return &Flatten{} }

// OutDim implements Layer.
func (f *Flatten) OutDim(in int) int { return in } // true dim depends on T; validated at runtime
