package nn

import (
	"math"
	"math/rand"
	"testing"
)

// The kernels in kernel.go claim bit-identity with the scalar loops they
// replaced. These tests pin that claim: reference implementations of the
// original loops live here, and every kernel must match them with exact
// float64 equality (==, not a tolerance) across randomized shapes —
// including out-dims that are not a multiple of the 4-lane tile, single-
// timestep windows, and kernels wider than the window.

// refMatvec is the scalar loop Dense/LSTM used per output lane.
func refMatvec(dst, w, bias, x []float64, out, in int) {
	for o := 0; o < out; o++ {
		sum := bias[o]
		row := w[o*in : (o+1)*in]
		for i := 0; i < in; i++ {
			sum += row[i] * x[i]
		}
		dst[o] = sum
	}
}

// refGates is LSTM.gates as it was before vectorization.
func refGates(dst, wx, wh, b, x, h []float64, hidden, in int) {
	for g := 0; g < 4*hidden; g++ {
		sum := b[g]
		wxRow := wx[g*in : (g+1)*in]
		for i := 0; i < in; i++ {
			sum += wxRow[i] * x[i]
		}
		whRow := wh[g*hidden : (g+1)*hidden]
		for i := 0; i < hidden; i++ {
			sum += whRow[i] * h[i]
		}
		dst[g] = sum
	}
}

// refConv1d is Conv1D's scalar triple loop.
func refConv1d(out, x [][]float64, w, bias []float64, outDim, inDim, K int) {
	T := len(x)
	for t := range out {
		for o := 0; o < outDim; o++ {
			sum := bias[o]
			for k := 0; k < K; k++ {
				ti := t + k
				if ti >= T {
					break
				}
				row := w[(o*K+k)*inDim : (o*K+k+1)*inDim]
				xt := x[ti]
				for i := 0; i < inDim; i++ {
					sum += row[i] * xt[i]
				}
			}
			out[t][o] = sum
		}
	}
}

func randVec(rng *rand.Rand, n int) []float64 {
	v := make([]float64, n)
	for i := range v {
		v[i] = rng.NormFloat64()
	}
	return v
}

// kernelShapes covers both tile-aligned and ragged dimensions, down to 1.
var kernelShapes = []struct{ out, in int }{
	{1, 1}, {1, 7}, {2, 3}, {3, 5}, {4, 4}, {4, 1}, {5, 9},
	{7, 13}, {8, 8}, {13, 2}, {16, 31}, {31, 16}, {64, 19},
}

func TestMatvecKernelsMatchReference(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for _, sh := range kernelShapes {
		w := randVec(rng, sh.out*sh.in)
		bias := randVec(rng, sh.out)
		x := randVec(rng, sh.in)

		want := make([]float64, sh.out)
		got := make([]float64, sh.out)
		refMatvec(want, w, bias, x, sh.out, sh.in)
		matvecInto(got, w, bias, x, sh.out, sh.in)
		for o := range want {
			if got[o] != want[o] {
				t.Fatalf("matvecInto %dx%d lane %d: %v != %v", sh.out, sh.in, o, got[o], want[o])
			}
		}

		// Accum continues an existing chain: seed both sides identically.
		seed := randVec(rng, sh.out)
		copy(got, seed)
		matvecAccum(got, w, x, sh.out, sh.in)
		refMatvec(want, w, seed, x, sh.out, sh.in) // bias-seeded chain == accum chain
		for o := range want {
			if got[o] != want[o] {
				t.Fatalf("matvecAccum %dx%d lane %d: %v != %v", sh.out, sh.in, o, got[o], want[o])
			}
		}
	}
}

func TestSeqDenseMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(12))
	for _, sh := range kernelShapes {
		for _, T := range []int{1, 2, 5, 10} {
			w := randVec(rng, sh.out*sh.in)
			bias := randVec(rng, sh.out)
			x := randSeq(rng, T, sh.in)
			want := randSeq(rng, T, sh.out)
			got := randSeq(rng, T, sh.out)
			for t2 := 0; t2 < T; t2++ {
				refMatvec(want[t2], w, bias, x[t2], sh.out, sh.in)
			}
			seqDenseInto(got, x, w, bias, sh.out, sh.in)
			for t2 := 0; t2 < T; t2++ {
				for o := range want[t2] {
					if got[t2][o] != want[t2][o] {
						t.Fatalf("seqDenseInto %dx%d T=%d t=%d lane %d: %v != %v",
							sh.out, sh.in, T, t2, o, got[t2][o], want[t2][o])
					}
				}
			}
		}
	}
}

func TestConv1dKernelMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	for _, sh := range kernelShapes {
		for _, K := range []int{1, 2, 3, 5} {
			for _, T := range []int{1, 2, 4, 9} {
				outT := T - K + 1
				if outT < 1 {
					outT = 1 // kernel wider than window: truncated taps
				}
				w := randVec(rng, sh.out*K*sh.in)
				bias := randVec(rng, sh.out)
				x := randSeq(rng, T, sh.in)
				want := randSeq(rng, outT, sh.out)
				got := randSeq(rng, outT, sh.out)
				refConv1d(want, x, w, bias, sh.out, sh.in, K)
				conv1dInto(got, x, w, bias, sh.out, sh.in, K)
				for t2 := range want {
					for o := range want[t2] {
						if got[t2][o] != want[t2][o] {
							t.Fatalf("conv1dInto %dx%d K=%d T=%d t=%d lane %d: %v != %v",
								sh.out, sh.in, K, T, t2, o, got[t2][o], want[t2][o])
						}
					}
				}
			}
		}
	}
}

func TestLSTMGatesMatchReference(t *testing.T) {
	rng := rand.New(rand.NewSource(14))
	for _, sh := range []struct{ hidden, in int }{
		{1, 1}, {2, 7}, {3, 3}, {4, 5}, {5, 4}, {8, 13}, {16, 16}, {17, 6},
	} {
		l := NewLSTM(rng, sh.in, sh.hidden)
		x := randVec(rng, sh.in)
		h := randVec(rng, sh.hidden)
		want := make([]float64, 4*sh.hidden)
		got := make([]float64, 4*sh.hidden)
		refGates(want, l.Wx.W, l.Wh.W, l.B.W, x, h, sh.hidden, sh.in)
		l.gates(x, h, got)
		for g := range want {
			if got[g] != want[g] {
				t.Fatalf("gates hidden=%d in=%d lane %d: %v != %v", sh.hidden, sh.in, g, got[g], want[g])
			}
		}
	}
}

// TestPredictorShortWindowAfterFlatten pins the post-Flatten ragged-width
// case: a Predictor sized for maxT timesteps must produce outputs
// bit-identical to Network.Forward when the runtime window is shorter,
// which makes the Flatten output row (T*d) narrower than the Dense layer
// was sized for at scratch allocation (maxT*d).
func TestPredictorShortWindowAfterFlatten(t *testing.T) {
	rng := rand.New(rand.NewSource(15))
	const maxT, d = 10, 6
	net := &Network{Layers: []Layer{
		NewDense(rng, d, 8),
		&ReLU{},
		&Flatten{},
		NewDense(rng, maxT*8, 3),
	}}
	p := net.NewPredictor(maxT, d)
	for _, T := range []int{1, 2, 4, maxT} {
		x := randSeq(rng, T, d)
		// The trailing Dense is sized for maxT*8 inputs; shorter windows
		// exercise the kernel's ragged input tail. Forward only reads the
		// first T*8 weights of each row through the T*8-wide Flatten row,
		// so slice the comparison to what both paths compute.
		inDim := T * 8
		dense := net.Layers[3].(*Dense)
		wantRow := make([]float64, dense.Out)
		flat := net.Layers[2].Forward(net.Layers[1].Forward(net.Layers[0].Forward(x, false), false), false)
		refMatvecRagged(wantRow, dense.Weight.W, dense.Bias.W, flat[0], dense.Out, dense.In, inDim)
		got := p.Forward(x)
		for o := range wantRow {
			if got[o] != wantRow[o] {
				t.Fatalf("T=%d lane %d: predictor %v != reference %v", T, o, got[o], wantRow[o])
			}
		}
	}
}

// refMatvecRagged is refMatvec where each weight row is rowWidth wide but
// only the first in inputs participate (the short-window Flatten case).
func refMatvecRagged(dst, w, bias, x []float64, out, rowWidth, in int) {
	for o := 0; o < out; o++ {
		sum := bias[o]
		row := w[o*rowWidth : o*rowWidth+in]
		for i := 0; i < in; i++ {
			sum += row[i] * x[i]
		}
		dst[o] = sum
	}
}

// Benchmark pairs: the pre-vectorization scalar loops (ref*) against the
// kernels that replaced them, at dimensions typical of the monitor's
// heads (window 10, a few dozen features, hidden 32).

func benchSeq(rng *rand.Rand, T, d int) [][]float64 {
	x := make([][]float64, T)
	for t := range x {
		x[t] = randVec(rng, d)
	}
	return x
}

func BenchmarkSeqDenseNaive(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	const T, in, out = 10, 40, 64
	x := benchSeq(rng, T, in)
	w, bias := randVec(rng, out*in), randVec(rng, out)
	dst := benchSeq(rng, T, out)
	b.ReportAllocs()
	b.ResetTimer()
	for n := 0; n < b.N; n++ {
		for t := 0; t < T; t++ {
			refMatvec(dst[t], w, bias, x[t], out, in)
		}
	}
}

func BenchmarkSeqDenseKernel(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	const T, in, out = 10, 40, 64
	x := benchSeq(rng, T, in)
	w, bias := randVec(rng, out*in), randVec(rng, out)
	dst := benchSeq(rng, T, out)
	b.ReportAllocs()
	b.ResetTimer()
	for n := 0; n < b.N; n++ {
		seqDenseInto(dst, x, w, bias, out, in)
	}
}

func BenchmarkLSTMGatesNaive(b *testing.B) {
	rng := rand.New(rand.NewSource(2))
	const hidden, in = 32, 40
	wx, wh := randVec(rng, 4*hidden*in), randVec(rng, 4*hidden*hidden)
	bias := randVec(rng, 4*hidden)
	x, h := randVec(rng, in), randVec(rng, hidden)
	dst := make([]float64, 4*hidden)
	b.ReportAllocs()
	b.ResetTimer()
	for n := 0; n < b.N; n++ {
		refGates(dst, wx, wh, bias, x, h, hidden, in)
	}
}

func BenchmarkLSTMGatesKernel(b *testing.B) {
	rng := rand.New(rand.NewSource(2))
	const hidden, in = 32, 40
	wx, wh := randVec(rng, 4*hidden*in), randVec(rng, 4*hidden*hidden)
	bias := randVec(rng, 4*hidden)
	x, h := randVec(rng, in), randVec(rng, hidden)
	dst := make([]float64, 4*hidden)
	b.ReportAllocs()
	b.ResetTimer()
	for n := 0; n < b.N; n++ {
		matvecInto(dst, wx, bias, x, 4*hidden, in)
		matvecAccum(dst, wh, h, 4*hidden, hidden)
	}
}

func BenchmarkConv1dNaive(b *testing.B) {
	rng := rand.New(rand.NewSource(3))
	const T, in, out, K = 10, 16, 32, 3
	x := benchSeq(rng, T, in)
	w, bias := randVec(rng, out*K*in), randVec(rng, out)
	dst := benchSeq(rng, T-K+1, out)
	b.ReportAllocs()
	b.ResetTimer()
	for n := 0; n < b.N; n++ {
		refConv1d(dst, x, w, bias, out, in, K)
	}
}

func BenchmarkConv1dKernel(b *testing.B) {
	rng := rand.New(rand.NewSource(3))
	const T, in, out, K = 10, 16, 32, 3
	x := benchSeq(rng, T, in)
	w, bias := randVec(rng, out*K*in), randVec(rng, out)
	dst := benchSeq(rng, T-K+1, out)
	b.ReportAllocs()
	b.ResetTimer()
	for n := 0; n < b.N; n++ {
		conv1dInto(dst, x, w, bias, out, in, K)
	}
}

// refLSTMBackward is LSTM.Backward's BPTT loop written with plain indexed
// loops, run over l's caches.
func refLSTMBackward(l *LSTM, gradOut [][]float64) [][]float64 {
	T, H := len(l.xs), l.Hidden
	hs, cs, gi, gf, gg, gO := l.hs.rows, l.cs.rows, l.gi.rows, l.gf.rows, l.gg.rows, l.g_o.rows
	gradIn := seq(T, l.In)
	dhNext := make([]float64, H)
	dcNext := make([]float64, H)
	dGate := make([]float64, 4*H)
	for t := T - 1; t >= 0; t-- {
		for j := 0; j < H; j++ {
			dh := gradOut[t][j] + dhNext[j]
			c := cs[t+1][j]
			tc := math.Tanh(c)
			o := gO[t][j]
			do := dh * tc
			dc := dh*o*(1-tc*tc) + dcNext[j]
			i, f, g := gi[t][j], gf[t][j], gg[t][j]
			dcNext[j] = dc * f
			dGate[j] = dc * g * i * (1 - i)
			dGate[H+j] = dc * cs[t][j] * f * (1 - f)
			dGate[2*H+j] = dc * i * (1 - g*g)
			dGate[3*H+j] = do * o * (1 - o)
		}
		for j := range dhNext {
			dhNext[j] = 0
		}
		for g := 0; g < 4*H; g++ {
			dg := dGate[g]
			if dg == 0 {
				continue
			}
			l.B.G[g] += dg
			for i := 0; i < l.In; i++ {
				l.Wx.G[g*l.In+i] += dg * l.xs[t][i]
				gradIn[t][i] += dg * l.Wx.W[g*l.In+i]
			}
			for i := 0; i < H; i++ {
				l.Wh.G[g*H+i] += dg * hs[t][i]
				dhNext[i] += dg * l.Wh.W[g*H+i]
			}
		}
	}
	return gradIn
}

// TestLSTMBackwardMatchesReference pins the BPTT's axpy rows, with and
// without the input gradient, to the plain loop bit for bit, on gradients
// that start random or all -0. Zeroed output gradients give whole gate
// rows a zero gradient, which both loops must skip: over a one-step
// window such a row's -0 gradients get no other term, so adding its 0·x
// terms would flip sign bits.
func TestLSTMBackwardMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	shapes := []struct{ T, in, hidden int }{{1, 3, 1}, {1, 6, 4}, {5, 7, 4}, {12, 38, 32}, {6, 5, 9}}
	for c := range 2 * len(shapes) {
		sh, negZero := shapes[c/2], c%2 == 1
		net := NewLSTM(rng, sh.in, sh.hidden)
		net.Forward(randSeq(rng, sh.T, sh.in), true)
		gradOut := randSeq(rng, sh.T, sh.hidden)
		for j := 0; j < sh.hidden; j += 2 {
			gradOut[sh.T-1][j] = 0 // the last step's dropped units
		}
		seedGrads := func() {
			for _, p := range net.Params() {
				for i := range p.G {
					p.G[i] = rng.NormFloat64()
					if negZero {
						p.G[i] = math.Copysign(0, -1)
					}
				}
			}
		}
		grads := func() (out [][]float64) {
			for _, p := range net.Params() {
				out = append(out, append([]float64(nil), p.G...))
			}
			return out
		}
		seedGrads()
		start := grads()
		wantIn := refLSTMBackward(net, gradOut)
		want := grads()
		for _, withIn := range []bool{true, false} {
			for i, p := range net.Params() {
				copy(p.G, start[i])
			}
			var gotIn [][]float64
			if withIn {
				gotIn = net.Backward(gradOut)
			} else {
				net.backward(gradOut, nil)
			}
			for i, g := range grads() {
				for j := range g {
					if math.Float64bits(g[j]) != math.Float64bits(want[i][j]) {
						t.Fatalf("%+v negZero=%v withIn=%v: %s.G[%d] = %v, reference %v",
							sh, negZero, withIn, net.Params()[i].Name, j, g[j], want[i][j])
					}
				}
			}
			for ti := range gotIn {
				for j := range gotIn[ti] {
					if math.Float64bits(gotIn[ti][j]) != math.Float64bits(wantIn[ti][j]) {
						t.Fatalf("%+v: gradIn[%d][%d] = %v, reference %v", sh, ti, j, gotIn[ti][j], wantIn[ti][j])
					}
				}
			}
		}
	}
}
