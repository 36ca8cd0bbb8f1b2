// Package stats provides the evaluation machinery used throughout the
// reproduction: binary and multi-class classification metrics (TPR, TNR,
// PPV, NPV, F1), ROC curves and AUC, kernel density estimation and
// Jensen-Shannon divergence (Figure 5), and simple summary statistics.
package stats

import (
	"errors"
	"math"
	"sort"
)

// ErrEmpty is returned by estimators that require at least one sample.
var ErrEmpty = errors.New("stats: empty input")

// BinaryConfusion accumulates a 2x2 confusion matrix for the unsafe-vs-safe
// detection problem. Positive = unsafe/erroneous, matching the paper.
type BinaryConfusion struct {
	TP, FP, TN, FN int
}

// Add records one prediction against ground truth.
func (c *BinaryConfusion) Add(predictedPositive, actualPositive bool) {
	switch {
	case predictedPositive && actualPositive:
		c.TP++
	case predictedPositive && !actualPositive:
		c.FP++
	case !predictedPositive && actualPositive:
		c.FN++
	default:
		c.TN++
	}
}

// Total returns the number of recorded samples.
func (c BinaryConfusion) Total() int { return c.TP + c.FP + c.TN + c.FN }

func ratio(num, den int) float64 {
	if den == 0 {
		return 0
	}
	return float64(num) / float64(den)
}

// TPR returns the true-positive rate (sensitivity / recall).
func (c BinaryConfusion) TPR() float64 { return ratio(c.TP, c.TP+c.FN) }

// TNR returns the true-negative rate (specificity).
func (c BinaryConfusion) TNR() float64 { return ratio(c.TN, c.TN+c.FP) }

// FPR returns the false-positive rate.
func (c BinaryConfusion) FPR() float64 { return ratio(c.FP, c.FP+c.TN) }

// PPV returns the positive predictive value (precision).
func (c BinaryConfusion) PPV() float64 { return ratio(c.TP, c.TP+c.FP) }

// NPV returns the negative predictive value.
func (c BinaryConfusion) NPV() float64 { return ratio(c.TN, c.TN+c.FN) }

// Accuracy returns overall accuracy.
func (c BinaryConfusion) Accuracy() float64 {
	return ratio(c.TP+c.TN, c.Total())
}

// F1 returns the harmonic mean of precision and recall for the positive
// (unsafe) class.
func (c BinaryConfusion) F1() float64 {
	p, r := c.PPV(), c.TPR()
	if p+r == 0 {
		return 0
	}
	return 2 * p * r / (p + r)
}

// MultiConfusion accumulates a KxK confusion matrix for gesture
// classification.
type MultiConfusion struct {
	K      int
	Counts [][]int // Counts[actual][predicted]
}

// NewMultiConfusion allocates a KxK confusion matrix.
func NewMultiConfusion(k int) *MultiConfusion {
	counts := make([][]int, k)
	for i := range counts {
		counts[i] = make([]int, k)
	}
	return &MultiConfusion{K: k, Counts: counts}
}

// Add records one prediction. Out-of-range labels are ignored.
func (m *MultiConfusion) Add(actual, predicted int) {
	if actual < 0 || actual >= m.K || predicted < 0 || predicted >= m.K {
		return
	}
	m.Counts[actual][predicted]++
}

// Total returns the number of recorded samples.
func (m *MultiConfusion) Total() int {
	var n int
	for i := range m.Counts {
		for j := range m.Counts[i] {
			n += m.Counts[i][j]
		}
	}
	return n
}

// Accuracy returns overall (micro) accuracy.
func (m *MultiConfusion) Accuracy() float64 {
	n := m.Total()
	if n == 0 {
		return 0
	}
	var correct int
	for i := range m.Counts {
		correct += m.Counts[i][i]
	}
	return float64(correct) / float64(n)
}

// ROCPoint is one operating point of a ROC curve.
type ROCPoint struct {
	Threshold float64
	FPR       float64
	TPR       float64
}

// ROC computes the ROC curve of scores against binary labels, where higher
// score means "more likely positive". The returned curve starts at
// (FPR=0, TPR=0) and ends at (1, 1), sorted by ascending FPR.
func ROC(scores []float64, labels []bool) []ROCPoint {
	if len(scores) != len(labels) || len(scores) == 0 {
		return nil
	}
	type sl struct {
		s float64
		l bool
	}
	data := make([]sl, len(scores))
	var pos, neg int
	for i := range scores {
		data[i] = sl{scores[i], labels[i]}
		if labels[i] {
			pos++
		} else {
			neg++
		}
	}
	sort.Slice(data, func(i, j int) bool { return data[i].s > data[j].s })

	curve := []ROCPoint{{Threshold: math.Inf(1), FPR: 0, TPR: 0}}
	var tp, fp int
	i := 0
	for i < len(data) {
		// Process ties together so the curve is well defined.
		j := i
		for j < len(data) && data[j].s == data[i].s {
			if data[j].l {
				tp++
			} else {
				fp++
			}
			j++
		}
		curve = append(curve, ROCPoint{
			Threshold: data[i].s,
			FPR:       ratio(fp, neg),
			TPR:       ratio(tp, pos),
		})
		i = j
	}
	return curve
}

// AUC returns the area under the ROC curve of scores vs labels using the
// trapezoidal rule. Degenerate inputs (single class) return 0.5 by
// convention, matching the paper's treatment of uninformative classifiers.
func AUC(scores []float64, labels []bool) float64 {
	var pos, neg bool
	for _, l := range labels {
		if l {
			pos = true
		} else {
			neg = true
		}
	}
	if !pos || !neg {
		return 0.5
	}
	curve := ROC(scores, labels)
	var area float64
	for i := 1; i < len(curve); i++ {
		dx := curve[i].FPR - curve[i-1].FPR
		area += dx * (curve[i].TPR + curve[i-1].TPR) / 2
	}
	return area
}

// F1AtThreshold computes the F1 score of thresholding scores at t
// (score >= t predicts positive).
func F1AtThreshold(scores []float64, labels []bool, t float64) float64 {
	var c BinaryConfusion
	for i := range scores {
		c.Add(scores[i] >= t, labels[i])
	}
	return c.F1()
}

// Mean returns the arithmetic mean, or 0 for empty input.
func Mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var s float64
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}

// StdDev returns the population standard deviation, or 0 for fewer than two
// samples.
func StdDev(xs []float64) float64 {
	if len(xs) < 2 {
		return 0
	}
	m := Mean(xs)
	var s float64
	for _, x := range xs {
		d := x - m
		s += d * d
	}
	return math.Sqrt(s / float64(len(xs)))
}

// Min returns the minimum, or +Inf for empty input.
func Min(xs []float64) float64 {
	m := math.Inf(1)
	for _, x := range xs {
		if x < m {
			m = x
		}
	}
	return m
}

// Max returns the maximum, or -Inf for empty input.
func Max(xs []float64) float64 {
	m := math.Inf(-1)
	for _, x := range xs {
		if x > m {
			m = x
		}
	}
	return m
}
