package gesture

import (
	"math"
	"math/rand"
	"strings"
	"testing"
	"testing/quick"
)

func TestGestureString(t *testing.T) {
	if G4.String() != "G4" {
		t.Errorf("G4.String() = %q", G4.String())
	}
	if !strings.Contains(Gesture(99).String(), "?") {
		t.Error("invalid gesture should render as unknown")
	}
	for g := Gesture(1); g <= MaxGesture; g++ {
		if g == 7 {
			continue
		}
		if g.Description() == "unknown gesture" && g != 7 {
			t.Errorf("%v has no description", g)
		}
	}
}

func TestTaskVocabulary(t *testing.T) {
	cases := []struct {
		task Task
		want int
	}{
		{Suturing, 10},
		{KnotTying, 6},
		{NeedlePassing, 8},
		{BlockTransfer, 5},
	}
	for _, c := range cases {
		if got := len(c.task.Vocabulary()); got != c.want {
			t.Errorf("%v vocabulary size %d, want %d", c.task, got, c.want)
		}
	}
	// Block Transfer matches the Figure 3b cycle.
	bt := BlockTransfer.Vocabulary()
	want := []Gesture{G2, G12, G6, G5, G11}
	for i := range want {
		if bt[i] != want[i] {
			t.Errorf("BlockTransfer vocab[%d] = %v, want %v", i, bt[i], want[i])
		}
	}
}

func TestRubricMatchesTableII(t *testing.T) {
	r := Rubric()
	// G10 has no common errors in Table II.
	if _, ok := r[G10]; ok {
		t.Error("G10 must have no rubric entry")
	}
	// G5's error is needle drop caused by high grasper angle.
	e := r[G5]
	if len(e.Modes) != 1 || e.Modes[0] != ErrNeedleDrop {
		t.Errorf("G5 modes = %v", e.Modes)
	}
	if len(e.Faults) != 1 || e.Faults[0] != FaultHighGrasper {
		t.Errorf("G5 faults = %v", e.Faults)
	}
	// G11's error is failure to drop off, caused by low grasper angle.
	e = r[G11]
	if e.Modes[0] != ErrFailureToDropoff || e.Faults[0] != FaultLowGrasper {
		t.Errorf("G11 entry = %+v", e)
	}
	// Every rubric entry must be internally consistent.
	for g, entry := range r {
		if entry.Gesture != g {
			t.Errorf("entry for %v has Gesture %v", g, entry.Gesture)
		}
		if len(entry.Modes) == 0 || len(entry.Faults) == 0 {
			t.Errorf("entry for %v is empty", g)
		}
	}
}

func TestErrorModeStrings(t *testing.T) {
	modes := []ErrorMode{
		ErrMultipleAttempts, ErrNeedleDrop, ErrOutOfView, ErrMultipleMoves,
		ErrNotAlongCurve, ErrLooseKnot, ErrFailureToDropoff, ErrInstrumentForStability,
	}
	for _, m := range modes {
		if m.String() == "unknown error mode" {
			t.Errorf("mode %d has no string", m)
		}
	}
}

func TestFitMarkovChainRejectsEmpty(t *testing.T) {
	if _, err := FitMarkovChain(nil); err == nil {
		t.Error("expected ErrNoSequences")
	}
	if _, err := FitMarkovChain([][]int{{1, 99}}); err == nil {
		t.Error("expected invalid-gesture error")
	}
}

func TestMarkovChainRowsStochastic(t *testing.T) {
	mc, err := FitMarkovChain([][]int{
		{1, 2, 3, 6, 11},
		{1, 2, 3, 6, 4, 2, 3, 6, 11},
		{5, 2, 3, 6, 11},
	})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < markovStates; i++ {
		row := mc.Row(i)
		var sum float64
		for _, p := range row {
			if p < 0 || p > 1 {
				t.Fatalf("probability out of range: %v", p)
			}
			sum += p
		}
		if sum != 0 && math.Abs(sum-1) > 1e-9 {
			t.Errorf("row %d sums to %v", i, sum)
		}
	}
	// Start must go to G1 with prob 2/3 and G5 with 1/3.
	if p := mc.Prob(StateStart, 1); math.Abs(p-2.0/3) > 1e-9 {
		t.Errorf("P(Start->G1) = %v", p)
	}
	if p := mc.Prob(StateStart, 5); math.Abs(p-1.0/3) > 1e-9 {
		t.Errorf("P(Start->G5) = %v", p)
	}
	// G11 always terminates.
	if p := mc.Prob(11, StateEnd); p != 1 {
		t.Errorf("P(G11->End) = %v", p)
	}
}

func TestMarkovChainStatesAndRender(t *testing.T) {
	mc, _ := FitMarkovChain([][]int{{2, 12, 6, 5, 11}})
	out := mc.Render(0.01)
	for _, want := range []string{"Start", "G2", "G12", "End"} {
		if !strings.Contains(out, want) {
			t.Errorf("render missing %q:\n%s", want, out)
		}
	}
}

func TestMarkovRowStochasticProperty(t *testing.T) {
	// Property: any fitted chain has rows that sum to 1 or 0.
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		var seqs [][]int
		for i := 0; i < 5; i++ {
			n := 3 + rng.Intn(8)
			seq := make([]int, n)
			for j := range seq {
				seq[j] = 1 + rng.Intn(MaxGesture)
			}
			seqs = append(seqs, seq)
		}
		mc, err := FitMarkovChain(seqs)
		if err != nil {
			return false
		}
		for i := 0; i < markovStates; i++ {
			var sum float64
			for _, p := range mc.Row(i) {
				sum += p
			}
			if sum != 0 && math.Abs(sum-1) > 1e-9 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Error(err)
	}
}
