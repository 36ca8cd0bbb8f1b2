package nn

// Vectorized matvec/GEMM kernels for the inference and training forward
// paths. The scalar loops they replace computed one output lane at a time,
// reloading the full input vector from memory for every lane; these
// routines process four output lanes per pass (four independent
// accumulator chains sharing each x[i] load) and, for whole-sequence
// products, keep a four-row weight tile hot in cache while the timestep
// rows stream through it.
//
// The matvec kernels reslice each tile row to len(x) before the inner
// loop. The compiler cannot otherwise prove that a row built from an
// offset expression is as long as x, so it keeps a bounds check on three
// of the four row loads in every iteration.
//
// Numerical contract: every kernel accumulates each output lane in exactly
// the order of the scalar loop it replaces — a single running sum seeded
// with the bias (or the destination value, for the Accum variants) and
// advanced input-index-ascending. Unrolling happens only ACROSS lanes,
// never within one lane's chain, so results are bit-identical to the naive
// loops. kernel_test.go pins this property against reference
// implementations over randomized shapes.

// matvecInto computes dst[o] = bias[o] + w[o*in:(o+1)*in] · x[:in] for
// o in [0, out). w is row-major out×in.
func matvecInto(dst, w, bias, x []float64, out, in int) {
	x = x[:in]
	o := 0
	for ; o+4 <= out; o += 4 {
		base := o * in
		r0 := w[base+0*in : base+1*in : base+1*in]
		r1 := w[base+1*in : base+2*in : base+2*in]
		r2 := w[base+2*in : base+3*in : base+3*in]
		r3 := w[base+3*in : base+4*in : base+4*in]
		r0, r1, r2, r3 = r0[:len(x)], r1[:len(x)], r2[:len(x)], r3[:len(x)]
		s0, s1, s2, s3 := bias[o], bias[o+1], bias[o+2], bias[o+3]
		for i, xi := range x {
			s0 += r0[i] * xi
			s1 += r1[i] * xi
			s2 += r2[i] * xi
			s3 += r3[i] * xi
		}
		dst[o], dst[o+1], dst[o+2], dst[o+3] = s0, s1, s2, s3
	}
	for ; o < out; o++ {
		row := w[o*in : (o+1)*in : (o+1)*in]
		s := bias[o]
		for i, xi := range x {
			s += row[i] * xi
		}
		dst[o] = s
	}
}

// matvecAccum computes dst[o] += w[o*in:(o+1)*in] · x[:in] for o in
// [0, out), continuing each lane's existing accumulation chain.
func matvecAccum(dst, w, x []float64, out, in int) {
	x = x[:in]
	o := 0
	for ; o+4 <= out; o += 4 {
		base := o * in
		r0 := w[base+0*in : base+1*in : base+1*in]
		r1 := w[base+1*in : base+2*in : base+2*in]
		r2 := w[base+2*in : base+3*in : base+3*in]
		r3 := w[base+3*in : base+4*in : base+4*in]
		r0, r1, r2, r3 = r0[:len(x)], r1[:len(x)], r2[:len(x)], r3[:len(x)]
		s0, s1, s2, s3 := dst[o], dst[o+1], dst[o+2], dst[o+3]
		for i, xi := range x {
			s0 += r0[i] * xi
			s1 += r1[i] * xi
			s2 += r2[i] * xi
			s3 += r3[i] * xi
		}
		dst[o], dst[o+1], dst[o+2], dst[o+3] = s0, s1, s2, s3
	}
	for ; o < out; o++ {
		row := w[o*in : (o+1)*in : (o+1)*in]
		s := dst[o]
		for i, xi := range x {
			s += row[i] * xi
		}
		dst[o] = s
	}
}

// matvecStridedAccum is matvecAccum over non-contiguous weight rows: lane
// o's row is w[base+o*stride : base+o*stride+in]. Conv1D uses it to apply
// one kernel tap (row stride K*in) across all output channels.
func matvecStridedAccum(dst, w, x []float64, base, stride, out, in int) {
	x = x[:in]
	o := 0
	for ; o+4 <= out; o += 4 {
		off := base + o*stride
		r0 := w[off+0*stride : off+0*stride+in : off+0*stride+in]
		r1 := w[off+1*stride : off+1*stride+in : off+1*stride+in]
		r2 := w[off+2*stride : off+2*stride+in : off+2*stride+in]
		r3 := w[off+3*stride : off+3*stride+in : off+3*stride+in]
		r0, r1, r2, r3 = r0[:len(x)], r1[:len(x)], r2[:len(x)], r3[:len(x)]
		s0, s1, s2, s3 := dst[o], dst[o+1], dst[o+2], dst[o+3]
		for i, xi := range x {
			s0 += r0[i] * xi
			s1 += r1[i] * xi
			s2 += r2[i] * xi
			s3 += r3[i] * xi
		}
		dst[o], dst[o+1], dst[o+2], dst[o+3] = s0, s1, s2, s3
	}
	for ; o < out; o++ {
		off := base + o*stride
		row := w[off : off+in : off+in]
		s := dst[o]
		for i, xi := range x {
			s += row[i] * xi
		}
		dst[o] = s
	}
}

// seqDenseInto computes the whole-sequence dense product
// out[t][o] = bias[o] + w[o*in:(o+1)*in] · x[t] with the output tile as
// the outer loop: each four-row weight tile is loaded once and reused
// across every timestep (cache blocking), instead of re-walking the full
// weight matrix per timestep.
//
// Rows shorter than inDim contribute only their available inputs
// (zero-padding semantics). That is the post-Flatten short-window case: a
// stream-start window of T < maxT timesteps flattens to a T*d row feeding
// a Dense layer sized for maxT*d inputs.
func seqDenseInto(out, x [][]float64, w, bias []float64, outDim, inDim int) {
	o := 0
	for ; o+4 <= outDim; o += 4 {
		base := o * inDim
		r0 := w[base+0*inDim : base+1*inDim : base+1*inDim]
		r1 := w[base+1*inDim : base+2*inDim : base+2*inDim]
		r2 := w[base+2*inDim : base+3*inDim : base+3*inDim]
		r3 := w[base+3*inDim : base+4*inDim : base+4*inDim]
		b0, b1, b2, b3 := bias[o], bias[o+1], bias[o+2], bias[o+3]
		for t := range x {
			xt := x[t]
			if len(xt) > inDim {
				xt = xt[:inDim]
			}
			s0, s1, s2, s3 := b0, b1, b2, b3
			for i, xi := range xt {
				s0 += r0[i] * xi
				s1 += r1[i] * xi
				s2 += r2[i] * xi
				s3 += r3[i] * xi
			}
			ot := out[t]
			ot[o], ot[o+1], ot[o+2], ot[o+3] = s0, s1, s2, s3
		}
	}
	for ; o < outDim; o++ {
		row := w[o*inDim : (o+1)*inDim : (o+1)*inDim]
		b := bias[o]
		for t := range x {
			xt := x[t]
			if len(xt) > inDim {
				xt = xt[:inDim]
			}
			s := b
			for i, xi := range xt {
				s += row[i] * xi
			}
			out[t][o] = s
		}
	}
}

// conv1dInto computes the valid-padding stride-1 1D convolution
// out[t][o] = bias[o] + Σ_k w[(o*K+k)*in : ...] · x[t+k][:in], truncating
// taps past the end of x (the graceful short-window degradation of
// Conv1D.Forward). Each lane's accumulation order is bias, then taps in
// ascending k, each tap input-index-ascending — identical to the scalar
// triple loop.
func conv1dInto(out, x [][]float64, w, bias []float64, outDim, inDim, K int) {
	T := len(x)
	for t := range out {
		dst := out[t][:outDim]
		copy(dst, bias[:outDim])
		for k := 0; k < K; k++ {
			ti := t + k
			if ti >= T {
				break
			}
			matvecStridedAccum(dst, w, x[ti], k*inDim, K*inDim, outDim, inDim)
		}
	}
}

// axpy computes dst[i] += a·x[i] for i in [0, len(dst)): one row of a
// training backward pass's gradient accumulation. x is resliced to
// len(dst) so the compiler drops the loop's bounds checks.
func axpy(dst []float64, a float64, x []float64) {
	x = x[:len(dst)]
	for i, xi := range x {
		dst[i] += a * xi
	}
}

// axpy2 is two axpys in one pass, g += a·x and gi += a·w: a parameter
// gradient row and the matching input gradient row. Each element gets
// exactly the one addition the separate loops would give it.
func axpy2(g, x, gi, w []float64, a float64) {
	x, gi, w = x[:len(g)], gi[:len(g)], w[:len(g)]
	for i, xi := range x {
		g[i] += a * xi
		gi[i] += a * w[i]
	}
}
