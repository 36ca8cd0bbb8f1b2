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

	// caches for BPTT
	xs              [][]float64
	hs, cs          [][]float64 // hidden and cell states, length T+1 (index 0 = initial)
	gi, gf, gg, g_o [][]float64 // gate activations per timestep
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

// Forward implements Layer, running the full window with state reset.
// BPTT caches are only written in train mode, keeping inference read-only
// (and therefore safe for concurrent streams sharing one trained network).
func (l *LSTM) Forward(x [][]float64, train bool) [][]float64 {
	T, H := len(x), l.Hidden
	out := seq(T, H)
	h := make([]float64, H)
	c := make([]float64, H)
	if train {
		l.xs = x
		l.hs = seq(T+1, H)
		l.cs = seq(T+1, H)
		l.gi = seq(T, H)
		l.gf = seq(T, H)
		l.gg = seq(T, H)
		l.g_o = seq(T, H)
	}

	pre := make([]float64, 4*H)
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
				l.gi[t][j], l.gf[t][j], l.gg[t][j], l.g_o[t][j] = i, f, g, o
				l.cs[t+1][j] = cv
				l.hs[t+1][j] = hv
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
	T, H := len(l.xs), l.Hidden
	gradIn := seq(T, l.In)
	dhNext := make([]float64, H)
	dcNext := make([]float64, H)
	dGate := make([]float64, 4*H)

	for t := T - 1; t >= 0; t-- {
		for j := 0; j < H; j++ {
			dh := gradOut[t][j] + dhNext[j]
			c := l.cs[t+1][j]
			tc := math.Tanh(c)
			o := l.g_o[t][j]
			do := dh * tc
			dc := dh*o*(1-tc*tc) + dcNext[j]
			i, f, g := l.gi[t][j], l.gf[t][j], l.gg[t][j]
			di := dc * g
			dg := dc * i
			df := dc * l.cs[t][j]
			dcNext[j] = dc * f
			// pre-activation gradients
			dGate[j] = di * i * (1 - i)
			dGate[H+j] = df * f * (1 - f)
			dGate[2*H+j] = dg * (1 - g*g)
			dGate[3*H+j] = do * o * (1 - o)
		}
		// accumulate parameter grads and input/hidden grads
		for j := range dhNext {
			dhNext[j] = 0
		}
		xt := l.xs[t]
		ht := l.hs[t]
		for g := 0; g < 4*H; g++ {
			dg := dGate[g]
			if dg == 0 {
				continue
			}
			l.B.G[g] += dg
			wxRow := l.Wx.W[g*l.In : (g+1)*l.In]
			gxRow := l.Wx.G[g*l.In : (g+1)*l.In]
			gi := gradIn[t]
			for i := 0; i < l.In; i++ {
				gxRow[i] += dg * xt[i]
				gi[i] += dg * wxRow[i]
			}
			whRow := l.Wh.W[g*H : (g+1)*H]
			ghRow := l.Wh.G[g*H : (g+1)*H]
			for i := 0; i < H; i++ {
				ghRow[i] += dg * ht[i]
				dhNext[i] += dg * whRow[i]
			}
		}
	}
	return gradIn
}

// Params implements Layer.
func (l *LSTM) Params() []*Param { return []*Param{l.Wx, l.Wh, l.B} }

// OutDim implements Layer.
func (l *LSTM) OutDim(int) int { return l.Hidden }
