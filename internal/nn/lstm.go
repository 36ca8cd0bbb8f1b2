package nn

import (
	"math"
	"math/rand"
)

// LSTM is a single long short-term memory layer processing a sequence
// [T][In] into hidden states [T][Hidden], with full backpropagation through
// time over the window. Gate layout in the packed weight matrices is
// (input, forget, cell, output). Online inference runs through a
// Predictor's scratch buffers (infer.go), so a trained layer is read-only
// outside training.
type LSTM struct {
	In, Hidden int

	Wx *Param // 4*Hidden x In, input-to-gates
	Wh *Param // 4*Hidden x Hidden, hidden-to-gates
	B  *Param // 4*Hidden

	// caches for BPTT: the last training window, its hidden and cell
	// states (T+1 rows, row 0 the zero initial state) and its gate
	// activations per timestep
	xs              [][]float64
	hs, cs          seqBuf
	gi, gf, gg, g_o seqBuf
	// training buffers: the output, the input gradient, the forward's
	// h, c and gate pre-activations, and the backward's dh, dc and gate
	// gradients, each laid out in 6*Hidden values
	out, gradIn seqBuf
	fwd, bwd    []float64
}

var _ Layer = (*LSTM)(nil)

// NewLSTM constructs an LSTM layer with Glorot-initialized weights and
// forget-gate bias of 1 (standard practice for training stability).
func NewLSTM(rng *rand.Rand, in, hidden int) *LSTM {
	l := &LSTM{
		In:     in,
		Hidden: hidden,
		Wx:     newParam("lstm.Wx", 4*hidden*in),
		Wh:     newParam("lstm.Wh", 4*hidden*hidden),
		B:      newParam("lstm.b", 4*hidden),
	}
	glorotInit(rng, l.Wx.W, in, hidden)
	glorotInit(rng, l.Wh.W, hidden, hidden)
	for i := hidden; i < 2*hidden; i++ { // forget-gate bias
		l.B.W[i] = 1
	}
	return l
}

func sigmoid(x float64) float64 { return 1 / (1 + math.Exp(-x)) }

// gates computes the pre-activation gate vector for input x and previous
// hidden state h, writing into dst of length 4*Hidden. Each lane's
// accumulation order — bias, then the Wx terms, then the Wh terms — is
// preserved across the two kernel calls, so gate pre-activations are
// bit-identical to the scalar loop this replaced.
func (l *LSTM) gates(x, h, dst []float64) {
	H := l.Hidden
	matvecInto(dst, l.Wx.W, l.B.W, x, 4*H, l.In)
	matvecAccum(dst, l.Wh.W, h, 4*H, H)
}

// Project writes the input projection B + Wx·x of one timestep into dst
// (length 4*Hidden): the part of the gate pre-activations that does not
// depend on the recurrent state. It starts each lane's accumulation chain
// exactly as gates does.
func (l *LSTM) Project(dst, x []float64) {
	matvecInto(dst, l.Wx.W, l.B.W, x, 4*l.Hidden, l.In)
}

// Forward implements Layer, running the full window with state reset.
// BPTT caches are only written in train mode, keeping inference read-only
// (and therefore safe for concurrent streams sharing one trained network).
func (l *LSTM) Forward(x [][]float64, train bool) [][]float64 {
	T, H := len(x), l.Hidden
	out := output(&l.out, train, T, H)
	var h, c, pre []float64
	var hs, cs, gi, gf, gg, gO [][]float64
	if train {
		l.xs = x
		hs, cs = l.hs.resize(T+1, H), l.cs.resize(T+1, H)
		clear(hs[0])
		clear(cs[0])
		gi, gf, gg, gO = l.gi.resize(T, H), l.gf.resize(T, H), l.gg.resize(T, H), l.g_o.resize(T, H)
		l.fwd = grow(l.fwd, 6*H)
		h, c, pre = l.fwd[:H:H], l.fwd[H:2*H:2*H], l.fwd[2*H:]
		clear(h)
		clear(c)
	} else {
		h, c, pre = make([]float64, H), make([]float64, H), make([]float64, 4*H)
	}

	for t := 0; t < T; t++ {
		l.gates(x[t], h, pre)
		for j := 0; j < H; j++ {
			i := sigmoid(pre[j])
			f := sigmoid(pre[H+j])
			g := math.Tanh(pre[2*H+j])
			o := sigmoid(pre[3*H+j])
			cv := f*c[j] + i*g
			hv := o * math.Tanh(cv)
			if train {
				gi[t][j], gf[t][j], gg[t][j], gO[t][j] = i, f, g, o
				cs[t+1][j] = cv
				hs[t+1][j] = hv
			}
			c[j] = cv
			h[j] = hv
			out[t][j] = hv
		}
	}
	return out
}

// Backward implements Layer (full BPTT over the cached window).
func (l *LSTM) Backward(gradOut [][]float64) [][]float64 {
	gradIn := l.gradIn.zeroed(len(l.xs), l.In)
	l.backward(gradOut, gradIn)
	return gradIn
}

// backward implements Layer.
func (l *LSTM) backward(gradOut, gradIn [][]float64) {
	T, H := len(l.xs), l.Hidden
	hs, cs := l.hs.rows, l.cs.rows
	gi, gf, gg, gO := l.gi.rows, l.gf.rows, l.gg.rows, l.g_o.rows
	l.bwd = grow(l.bwd, 6*H)
	dhNext, dcNext, dGate := l.bwd[:H:H], l.bwd[H:2*H:2*H], l.bwd[2*H:]
	clear(dhNext)
	clear(dcNext)

	for t := T - 1; t >= 0; t-- {
		for j := 0; j < H; j++ {
			dh := gradOut[t][j] + dhNext[j]
			c := cs[t+1][j]
			tc := math.Tanh(c)
			o := gO[t][j]
			do := dh * tc
			dc := dh*o*(1-tc*tc) + dcNext[j]
			i, f, g := gi[t][j], gf[t][j], gg[t][j]
			di := dc * g
			dg := dc * i
			df := dc * cs[t][j]
			dcNext[j] = dc * f
			// pre-activation gradients
			dGate[j] = di * i * (1 - i)
			dGate[H+j] = df * f * (1 - f)
			dGate[2*H+j] = dg * (1 - g*g)
			dGate[3*H+j] = do * o * (1 - o)
		}
		// accumulate parameter grads and input/hidden grads
		clear(dhNext)
		xt := l.xs[t][:l.In]
		ht := hs[t]
		for g, dg := range dGate {
			if dg == 0 {
				continue
			}
			l.B.G[g] += dg
			gxRow := l.Wx.G[g*l.In : (g+1)*l.In]
			if gradIn == nil {
				axpy(gxRow, dg, xt)
			} else {
				axpy2(gxRow, xt, gradIn[t], l.Wx.W[g*l.In:(g+1)*l.In], dg)
			}
			axpy2(l.Wh.G[g*H:(g+1)*H], ht, dhNext, l.Wh.W[g*H:(g+1)*H], dg)
		}
	}
}

// twin implements Layer.
func (l *LSTM) twin() Layer { return &LSTM{In: l.In, Hidden: l.Hidden, Wx: l.Wx, Wh: l.Wh, B: l.B} }

// Params implements Layer.
func (l *LSTM) Params() []*Param { return []*Param{l.Wx, l.Wh, l.B} }

// OutDim implements Layer.
func (l *LSTM) OutDim(int) int { return l.Hidden }
