package gesture

import (
	"errors"
	"fmt"
	"sort"
	"strings"
)

// Special Markov-chain states bracketing every demonstration.
const (
	StateStart = 0
	StateEnd   = NumClasses // one past the gesture vocabulary
)

// markovStates is the total number of chain states: Start (0), G1..G15, End.
const markovStates = NumClasses + 1

// ErrNoSequences is returned when fitting a chain on no data.
var ErrNoSequences = errors.New("gesture: no sequences to fit Markov chain")

// MarkovChain is a first-order finite-state model of a surgical task's
// gesture grammar (Figure 3 of the paper). State 0 is Start; state
// NumClasses is End; states 1..15 are gestures.
type MarkovChain struct {
	// Counts holds raw transition counts; Counts[i][j] is the number of
	// observed transitions from state i to state j.
	Counts [markovStates][markovStates]float64
}

// FitMarkovChain estimates the transition structure from demonstration
// gesture sequences (consecutive duplicates already collapsed, e.g. the
// output of Trajectory.GestureSequence).
func FitMarkovChain(sequences [][]int) (*MarkovChain, error) {
	if len(sequences) == 0 {
		return nil, ErrNoSequences
	}
	mc := &MarkovChain{}
	for _, seq := range sequences {
		prev := StateStart
		for _, g := range seq {
			if g <= 0 || g > MaxGesture {
				return nil, fmt.Errorf("gesture: sequence contains invalid gesture %d", g)
			}
			mc.Counts[prev][g]++
			prev = g
		}
		mc.Counts[prev][StateEnd]++
	}
	return mc, nil
}

// Prob returns the maximum-likelihood transition probability from state i to
// state j. Rows with no observations return 0 everywhere.
func (mc *MarkovChain) Prob(i, j int) float64 {
	var row float64
	for k := 0; k < markovStates; k++ {
		row += mc.Counts[i][k]
	}
	if row == 0 {
		return 0
	}
	return mc.Counts[i][j] / row
}

// Row returns the full transition-probability row for state i.
func (mc *MarkovChain) Row(i int) []float64 {
	out := make([]float64, markovStates)
	var row float64
	for k := 0; k < markovStates; k++ {
		row += mc.Counts[i][k]
	}
	if row == 0 {
		return out
	}
	for k := 0; k < markovStates; k++ {
		out[k] = mc.Counts[i][k] / row
	}
	return out
}

// Render returns a human-readable transition table (the textual analogue of
// Figure 3), listing transitions with probability >= minProb.
func (mc *MarkovChain) Render(minProb float64) string {
	var b strings.Builder
	name := func(s int) string {
		switch s {
		case StateStart:
			return "Start"
		case StateEnd:
			return "End"
		default:
			return Gesture(s).String()
		}
	}
	for i := 0; i < markovStates; i++ {
		row := mc.Row(i)
		type edge struct {
			to int
			p  float64
		}
		var edges []edge
		for j, p := range row {
			if p >= minProb && p > 0 {
				edges = append(edges, edge{j, p})
			}
		}
		if len(edges) == 0 {
			continue
		}
		sort.Slice(edges, func(a, b int) bool { return edges[a].p > edges[b].p })
		fmt.Fprintf(&b, "%-5s ->", name(i))
		for _, e := range edges {
			fmt.Fprintf(&b, " %s(%.2f)", name(e.to), e.p)
		}
		b.WriteByte('\n')
	}
	return b.String()
}
