package experiments

import (
	"fmt"
	"math"
	"sort"
	"strings"

	"repro/internal/dataset"
	"repro/internal/kinematics"
	"repro/internal/stats"
	"repro/internal/synth"
)

// Fig5Result is the pairwise Jensen-Shannon divergence matrix between
// erroneous-gesture distributions (Figure 5).
type Fig5Result struct {
	Gestures []int
	// Matrix[i][j] is JSD between erroneous distributions of Gestures[i]
	// and Gestures[j] in nats (symmetric, zero diagonal).
	Matrix [][]float64
	// Samples[i] is the erroneous-frame count for Gestures[i].
	Samples []int
}

// RunFig5 estimates the per-gesture erroneous sample distributions with
// Gaussian KDEs over a scalar kinematic projection and computes their
// pairwise JS divergences, as in §III of the paper. Gestures with fewer
// than minSamples erroneous frames are excluded ("for the other gesture
// classes we were not able to compute meaningful distributions due to
// small sample sizes").
func RunFig5(o Options) (*Fig5Result, error) {
	cfg := o.suturingConfig()
	cfg.ErrorRate = 0.35 // denser errors give better-conditioned KDEs
	demos, err := synth.Generate(cfg)
	if err != nil {
		return nil, err
	}
	trajs := synth.Trajectories(demos)

	features := kinematics.CRG()
	std := dataset.FitStandardizer(trajs, features)

	// Scalar projection: standardized feature-vector norm. This captures
	// how far the kinematics deviate from nominal in any direction, the
	// quantity the error signatures perturb.
	byGesture := map[int][]float64{}
	for _, tr := range trajs {
		mat := features.Matrix(tr)
		std.TransformAll(mat)
		for i, row := range mat {
			if !tr.Unsafe[i] {
				continue
			}
			var norm float64
			for _, v := range row {
				norm += v * v
			}
			byGesture[tr.Gestures[i]] = append(byGesture[tr.Gestures[i]], math.Sqrt(norm))
		}
	}

	const minSamples = 60
	var gestures []int
	for g, xs := range byGesture {
		if len(xs) >= minSamples {
			gestures = append(gestures, g)
		}
	}
	sort.Ints(gestures)

	res := &Fig5Result{Gestures: gestures}
	res.Matrix = make([][]float64, len(gestures))
	res.Samples = make([]int, len(gestures))
	for i, g := range gestures {
		res.Samples[i] = len(byGesture[g])
		res.Matrix[i] = make([]float64, len(gestures))
	}
	for i := range gestures {
		for j := i + 1; j < len(gestures); j++ {
			d, err := stats.JSDivergenceSamples(byGesture[gestures[i]], byGesture[gestures[j]], 256)
			if err != nil {
				return nil, err
			}
			res.Matrix[i][j] = d
			res.Matrix[j][i] = d
		}
	}
	return res, nil
}

// Render returns the divergence matrix as text.
func (r *Fig5Result) Render() string {
	var b strings.Builder
	b.WriteString("Figure 5 — pairwise JS divergence between erroneous gesture distributions (nats):\n      ")
	for _, g := range r.Gestures {
		fmt.Fprintf(&b, "  EG%-4d", g)
	}
	b.WriteByte('\n')
	for i, g := range r.Gestures {
		fmt.Fprintf(&b, "EG%-3d ", g)
		for j := range r.Gestures {
			fmt.Fprintf(&b, " %6.3f", r.Matrix[i][j])
		}
		fmt.Fprintf(&b, "   (n=%d)\n", r.Samples[i])
	}
	return b.String()
}

// MaxOffDiagonal returns the largest pairwise divergence, used by tests to
// confirm that erroneous gesture distributions are context-specific.
func (r *Fig5Result) MaxOffDiagonal() float64 {
	var m float64
	for i := range r.Matrix {
		for j := range r.Matrix[i] {
			if i != j && r.Matrix[i][j] > m {
				m = r.Matrix[i][j]
			}
		}
	}
	return m
}
