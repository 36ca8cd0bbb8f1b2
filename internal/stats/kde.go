package stats

import (
	"math"
)

// KDE is a one-dimensional Gaussian kernel density estimator, used to model
// the distribution of erroneous-gesture feature projections when computing
// the pairwise Jensen-Shannon divergences of Figure 5.
type KDE struct {
	samples   []float64
	bandwidth float64
}

// NewKDE builds a Gaussian KDE over samples. If bandwidth <= 0, Silverman's
// rule of thumb is used. Returns ErrEmpty when samples is empty.
func NewKDE(samples []float64, bandwidth float64) (*KDE, error) {
	if len(samples) == 0 {
		return nil, ErrEmpty
	}
	cp := make([]float64, len(samples))
	copy(cp, samples)
	if bandwidth <= 0 {
		sd := StdDev(cp)
		if sd < 1e-9 {
			sd = 1e-9
		}
		bandwidth = 1.06 * sd * math.Pow(float64(len(cp)), -0.2)
	}
	return &KDE{samples: cp, bandwidth: bandwidth}, nil
}

// Density evaluates the estimated probability density at x.
func (k *KDE) Density(x float64) float64 {
	const invSqrt2Pi = 0.3989422804014327
	h := k.bandwidth
	var sum float64
	for _, s := range k.samples {
		u := (x - s) / h
		sum += invSqrt2Pi * math.Exp(-0.5*u*u)
	}
	return sum / (float64(len(k.samples)) * h)
}

// Grid evaluates the density on n evenly spaced points spanning the sample
// range extended by three bandwidths each side, returning xs and densities.
func (k *KDE) Grid(n int) (xs, ys []float64) {
	if n < 2 {
		n = 2
	}
	lo := Min(k.samples) - 3*k.bandwidth
	hi := Max(k.samples) + 3*k.bandwidth
	xs = make([]float64, n)
	ys = make([]float64, n)
	step := (hi - lo) / float64(n-1)
	for i := 0; i < n; i++ {
		xs[i] = lo + float64(i)*step
		ys[i] = k.Density(xs[i])
	}
	return xs, ys
}

// DiscretizeOn evaluates the KDE on the given grid and normalizes the result
// into a probability mass function (summing to 1), suitable for divergence
// computations.
func (k *KDE) DiscretizeOn(grid []float64) []float64 {
	pmf := make([]float64, len(grid))
	var total float64
	for i, x := range grid {
		pmf[i] = k.Density(x)
		total += pmf[i]
	}
	if total > 0 {
		for i := range pmf {
			pmf[i] /= total
		}
	}
	return pmf
}

// SharedGrid builds a common evaluation grid covering both sample sets,
// extended by three bandwidths of the wider estimator on each side.
func SharedGrid(a, b *KDE, n int) []float64 {
	if n < 2 {
		n = 2
	}
	h := math.Max(a.bandwidth, b.bandwidth)
	lo := math.Min(Min(a.samples), Min(b.samples)) - 3*h
	hi := math.Max(Max(a.samples), Max(b.samples)) + 3*h
	grid := make([]float64, n)
	step := (hi - lo) / float64(n-1)
	for i := range grid {
		grid[i] = lo + float64(i)*step
	}
	return grid
}

// KLDivergence computes the Kullback-Leibler divergence D(p||q) between two
// discrete distributions in nats. Zero-probability q bins where p > 0
// contribute using a small epsilon floor to keep the result finite, since
// KDE discretization can underflow in the tails.
func KLDivergence(p, q []float64) float64 {
	const eps = 1e-12
	var d float64
	for i := range p {
		if p[i] <= 0 {
			continue
		}
		qi := q[i]
		if qi < eps {
			qi = eps
		}
		d += p[i] * math.Log(p[i]/qi)
	}
	return d
}

// JSDivergence computes the Jensen-Shannon divergence between discrete
// distributions p and q (Equation 1 of the paper):
//
//	JSD(p||q) = D(p||m)/2 + D(q||m)/2, m = (p+q)/2
//
// The result is symmetric, non-negative and bounded by ln 2 in nats.
func JSDivergence(p, q []float64) float64 {
	if len(p) != len(q) || len(p) == 0 {
		return 0
	}
	m := make([]float64, len(p))
	for i := range p {
		m[i] = (p[i] + q[i]) / 2
	}
	return KLDivergence(p, m)/2 + KLDivergence(q, m)/2
}

// JSDivergenceSamples builds KDEs for two 1-D sample sets, discretizes them
// on a shared grid of gridN points and returns their JS divergence.
func JSDivergenceSamples(a, b []float64, gridN int) (float64, error) {
	ka, err := NewKDE(a, 0)
	if err != nil {
		return 0, err
	}
	kb, err := NewKDE(b, 0)
	if err != nil {
		return 0, err
	}
	grid := SharedGrid(ka, kb, gridN)
	return JSDivergence(ka.DiscretizeOn(grid), kb.DiscretizeOn(grid)), nil
}
