package nn

import "math/rand"

// Conv1D is a one-dimensional convolution along the time axis with valid
// padding and stride 1: input [T][In] -> output [T-K+1][Out]. It is the
// building block of the 1D-CNN erroneous-gesture detectors (Tables V/VI).
type Conv1D struct {
	In, Out, K int

	Weight *Param // Out x K x In, row major
	Bias   *Param // Out

	lastIn      [][]float64
	out, gradIn seqBuf
}

var _ Layer = (*Conv1D)(nil)

// NewConv1D constructs a Conv1D layer with kernel size k and
// Glorot-initialized weights.
func NewConv1D(rng *rand.Rand, in, out, k int) *Conv1D {
	c := &Conv1D{
		In:     in,
		Out:    out,
		K:      k,
		Weight: newParam("conv1d.W", out*k*in),
		Bias:   newParam("conv1d.b", out),
	}
	glorotInit(rng, c.Weight.W, in*k, out)
	return c
}

// Forward implements Layer. Inputs shorter than the kernel produce a single
// output step computed over the (zero-padded) available frames so that the
// layer degrades gracefully at stream start.
func (c *Conv1D) Forward(x [][]float64, train bool) [][]float64 {
	if train {
		c.lastIn = x
	}
	T := len(x)
	outT := T - c.K + 1
	if outT < 1 {
		outT = 1
	}
	out := output(&c.out, train, outT, c.Out)
	conv1dInto(out, x, c.Weight.W, c.Bias.W, c.Out, c.In, c.K)
	return out
}

// Backward implements Layer.
func (c *Conv1D) Backward(gradOut [][]float64) [][]float64 {
	gradIn := c.gradIn.zeroed(len(c.lastIn), c.In)
	c.backward(gradOut, gradIn)
	return gradIn
}

// backward implements Layer.
func (c *Conv1D) backward(gradOut, gradIn [][]float64) {
	T := len(c.lastIn)
	for t := range gradOut {
		for o, g := range gradOut[t][:c.Out] {
			if g == 0 {
				continue
			}
			c.Bias.G[o] += g
			for k := 0; k < c.K; k++ {
				ti := t + k
				if ti >= T {
					break
				}
				row := (o*c.K + k) * c.In
				gRow := c.Weight.G[row : row+c.In]
				if gradIn == nil {
					axpy(gRow, g, c.lastIn[ti])
				} else {
					axpy2(gRow, c.lastIn[ti], gradIn[ti], c.Weight.W[row:row+c.In], g)
				}
			}
		}
	}
}

// Params implements Layer.
func (c *Conv1D) Params() []*Param { return []*Param{c.Weight, c.Bias} }

// twin implements Layer.
func (c *Conv1D) twin() Layer {
	return &Conv1D{In: c.In, Out: c.Out, K: c.K, Weight: c.Weight, Bias: c.Bias}
}

// OutDim implements Layer.
func (c *Conv1D) OutDim(int) int { return c.Out }
