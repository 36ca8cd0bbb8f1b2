// Package baseline implements the comparison methods the paper evaluates
// against: a skip-chain sequence decoder standing in for SC-CRF [44] and a
// sparse-dictionary + linear-SVM classifier standing in for SDSDL [45]
// (see DESIGN.md §2 for the substitution rationale), plus shared helpers
// for the non-context-specific monitor baseline.
package baseline

import (
	"errors"
	"math"
	"slices"

	"repro/internal/gesture"
)

// ErrNotFitted is returned when Predict is called before Fit.
var ErrNotFitted = errors.New("baseline: model not fitted")

// SkipChain is a generative sequence labeler with diagonal-Gaussian
// per-gesture emissions and a first-order transition matrix augmented by
// skip transitions (transition statistics at lag k), decoded with Viterbi.
// It plays the role of the Skip-Chain CRF of Lea et al. in Table IV:
// "a variation of the Skip-Chain Conditional Random Fields that can better
// capture transitions between gestures over longer periods of frames".
type SkipChain struct {
	// SkipLag is the lag (in frames) of the skip transition features.
	SkipLag int
	// SkipWeight balances first-order vs skip transition scores.
	SkipWeight float64
	// SelfBias is an additive log-score for staying in the same state,
	// controlling segmentation smoothness.
	SelfBias float64

	classes  []int
	means    map[int][]float64
	vars     map[int][]float64
	logPrior map[int]float64
	// logTrans[a][b] is the first-order log transition score.
	logTrans map[int]map[int]float64
	// logSkip[a][b] is the lag-k log transition score.
	logSkip map[int]map[int]float64
	fitted  bool
}

// NewSkipChain constructs a decoder with the given skip lag.
func NewSkipChain(skipLag int) *SkipChain {
	if skipLag <= 0 {
		skipLag = 10
	}
	return &SkipChain{SkipLag: skipLag, SkipWeight: 0.5, SelfBias: 2.0}
}

// Fit estimates emissions and transition statistics from frame-labeled
// sequences: xs[i] is a [T][D] feature sequence, ys[i] its per-frame
// gesture labels.
func (sc *SkipChain) Fit(xs [][][]float64, ys [][]int) error {
	if len(xs) == 0 || len(xs) != len(ys) {
		return errors.New("baseline: bad training data")
	}
	sum := map[int][]float64{}
	sumSq := map[int][]float64{}
	count := map[int]float64{}
	trans := map[int]map[int]float64{}
	skip := map[int]map[int]float64{}
	var total float64

	bump := func(m map[int]map[int]float64, a, b int) {
		if m[a] == nil {
			m[a] = map[int]float64{}
		}
		m[a][b]++
	}

	for i := range xs {
		x, y := xs[i], ys[i]
		if len(x) != len(y) {
			return errors.New("baseline: sequence length mismatch")
		}
		for t := range x {
			c := y[t]
			if sum[c] == nil {
				sum[c] = make([]float64, len(x[t]))
				sumSq[c] = make([]float64, len(x[t]))
			}
			for j, v := range x[t] {
				sum[c][j] += v
				sumSq[c][j] += v * v
			}
			count[c]++
			total++
			if t > 0 {
				bump(trans, y[t-1], c)
			}
			if t >= sc.SkipLag {
				bump(skip, y[t-sc.SkipLag], c)
			}
		}
	}

	sc.classes = sc.classes[:0]
	sc.means = map[int][]float64{}
	sc.vars = map[int][]float64{}
	sc.logPrior = map[int]float64{}
	for c, n := range count {
		sc.classes = append(sc.classes, c)
		d := len(sum[c])
		mu := make([]float64, d)
		va := make([]float64, d)
		for j := 0; j < d; j++ {
			mu[j] = sum[c][j] / n
			va[j] = sumSq[c][j]/n - mu[j]*mu[j]
			if va[j] < 1e-6 {
				va[j] = 1e-6
			}
		}
		sc.means[c] = mu
		sc.vars[c] = va
		sc.logPrior[c] = math.Log(n / total)
	}
	// Map iteration order is random: sort, so each transition row sums in
	// one order and one fit of the same data saves one byte string.
	slices.Sort(sc.classes)
	sc.logTrans = normalizeLog(trans, sc.classes)
	sc.logSkip = normalizeLog(skip, sc.classes)
	sc.fitted = true
	return nil
}

// normalizeLog converts count maps to add-one-smoothed log probabilities.
func normalizeLog(counts map[int]map[int]float64, classes []int) map[int]map[int]float64 {
	out := map[int]map[int]float64{}
	for _, a := range classes {
		row := counts[a]
		var total float64
		for _, b := range classes {
			total += row[b] + 1
		}
		out[a] = map[int]float64{}
		for _, b := range classes {
			out[a][b] = math.Log((row[b] + 1) / total)
		}
	}
	return out
}

// logEmission scores frame x under class c's diagonal Gaussian.
func (sc *SkipChain) logEmission(x []float64, c int) float64 {
	mu, va := sc.means[c], sc.vars[c]
	var ll float64
	for j := range x {
		d := x[j] - mu[j]
		ll += -0.5*math.Log(2*math.Pi*va[j]) - d*d/(2*va[j])
	}
	return ll
}

// Predict Viterbi-decodes the most likely gesture label per frame.
func (sc *SkipChain) Predict(x [][]float64) ([]int, error) {
	if !sc.fitted {
		return nil, ErrNotFitted
	}
	T := len(x)
	K := len(sc.classes)
	if T == 0 || K == 0 {
		return nil, nil
	}
	delta := make([][]float64, T)
	back := make([][]int, T)
	for t := range delta {
		delta[t] = make([]float64, K)
		back[t] = make([]int, K)
	}
	for k, c := range sc.classes {
		delta[0][k] = sc.logPrior[c] + sc.logEmission(x[0], c)
	}
	for t := 1; t < T; t++ {
		for k, c := range sc.classes {
			em := sc.logEmission(x[t], c)
			best := math.Inf(-1)
			bestJ := 0
			for j, p := range sc.classes {
				score := delta[t-1][j] + sc.logTrans[p][c]
				if p == c {
					score += sc.SelfBias
				}
				if t >= sc.SkipLag {
					prevSkip := back[t-1][j] // approximation: follow best path
					_ = prevSkip
					score += sc.SkipWeight * sc.logSkip[p][c]
				}
				if score > best {
					best, bestJ = score, j
				}
			}
			delta[t][k] = best + em
			back[t][k] = bestJ
		}
	}
	// Backtrack.
	bestK := 0
	for k := 1; k < K; k++ {
		if delta[T-1][k] > delta[T-1][bestK] {
			bestK = k
		}
	}
	out := make([]int, T)
	for t := T - 1; t >= 0; t-- {
		out[t] = sc.classes[bestK]
		bestK = back[t][bestK]
	}
	return out, nil
}

// OnlineDecoder labels gestures one frame at a time with the incremental
// Viterbi forward pass: it maintains the per-class path scores and reports
// the best class after each frame (filtering, no backward smoothing), so a
// streaming session sees exactly the label an offline prefix decode would
// assign to its newest frame. Both score vectors are allocated once at
// construction and swapped per frame, so Push never touches the heap.
type OnlineDecoder struct {
	sc    *SkipChain
	delta []float64
	next  []float64
	t     int
}

// NewOnlineDecoder creates a streaming decoder over the fitted chain.
func (sc *SkipChain) NewOnlineDecoder() (*OnlineDecoder, error) {
	if !sc.fitted {
		return nil, ErrNotFitted
	}
	k := len(sc.classes)
	return &OnlineDecoder{sc: sc, delta: make([]float64, k), next: make([]float64, k)}, nil
}

// Push consumes one feature frame and returns its gesture label.
func (d *OnlineDecoder) Push(x []float64) int {
	sc := d.sc
	if d.t == 0 {
		for k, c := range sc.classes {
			d.delta[k] = sc.logPrior[c] + sc.logEmission(x, c)
		}
	} else {
		for k, c := range sc.classes {
			best := math.Inf(-1)
			for j, p := range sc.classes {
				score := d.delta[j] + sc.logTrans[p][c]
				if p == c {
					score += sc.SelfBias
				}
				if d.t >= sc.SkipLag {
					score += sc.SkipWeight * sc.logSkip[p][c]
				}
				if score > best {
					best = score
				}
			}
			d.next[k] = best + sc.logEmission(x, c)
		}
		d.delta, d.next = d.next, d.delta
	}
	d.t++
	bestK := 0
	for k := 1; k < len(d.delta); k++ {
		if d.delta[k] > d.delta[bestK] {
			bestK = k
		}
	}
	return sc.classes[bestK]
}

// Accuracy computes frame-level accuracy over labeled sequences.
func (sc *SkipChain) Accuracy(xs [][][]float64, ys [][]int) (float64, error) {
	var correct, total int
	for i := range xs {
		pred, err := sc.Predict(xs[i])
		if err != nil {
			return 0, err
		}
		for t := range pred {
			if pred[t] == ys[i][t] {
				correct++
			}
			total++
		}
	}
	if total == 0 {
		return 0, nil
	}
	return float64(correct) / float64(total), nil
}

var _ = gesture.MaxGesture // gesture indices flow through the int labels
