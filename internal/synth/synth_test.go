package synth

import (
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/gesture"
)

func smallConfig(task gesture.Task, seed int64) Config {
	return Config{
		Task: task, Hz: 30, Seed: seed,
		NumDemos: 6, NumTrials: 3, Subjects: 3, DurationScale: 0.3,
	}
}

func TestGenerateValidTrajectories(t *testing.T) {
	for _, task := range []gesture.Task{gesture.Suturing, gesture.KnotTying, gesture.NeedlePassing, gesture.BlockTransfer} {
		demos, err := Generate(smallConfig(task, 1))
		if err != nil {
			t.Fatalf("%v: %v", task, err)
		}
		if len(demos) != 6 {
			t.Fatalf("%v: got %d demos", task, len(demos))
		}
		for i, d := range demos {
			if err := d.Traj.Validate(); err != nil {
				t.Errorf("%v demo %d invalid: %v", task, i, err)
			}
			if err := d.Traj.FiniteCheck(); err != nil {
				t.Errorf("%v demo %d: %v", task, i, err)
			}
			if len(d.Traj.Gestures) != d.Traj.Len() || len(d.Traj.Unsafe) != d.Traj.Len() {
				t.Errorf("%v demo %d labels incomplete", task, i)
			}
		}
	}
}

func TestGenerateRejectsBadConfig(t *testing.T) {
	if _, err := Generate(Config{}); err == nil {
		t.Error("expected ErrInvalidConfig")
	}
}

func TestGenerateDeterministic(t *testing.T) {
	a, err := Generate(smallConfig(gesture.Suturing, 7))
	if err != nil {
		t.Fatal(err)
	}
	b, err := Generate(smallConfig(gesture.Suturing, 7))
	if err != nil {
		t.Fatal(err)
	}
	if len(a) != len(b) {
		t.Fatal("different demo counts")
	}
	for i := range a {
		if a[i].Traj.Len() != b[i].Traj.Len() {
			t.Fatalf("demo %d lengths differ", i)
		}
		for j := range a[i].Traj.Frames {
			if a[i].Traj.Frames[j] != b[i].Traj.Frames[j] {
				t.Fatalf("demo %d frame %d differs", i, j)
			}
		}
	}
}

func TestGesturesFollowTaskVocabulary(t *testing.T) {
	demos, err := Generate(smallConfig(gesture.BlockTransfer, 2))
	if err != nil {
		t.Fatal(err)
	}
	vocab := map[int]bool{}
	for _, g := range gesture.BlockTransfer.Vocabulary() {
		vocab[int(g)] = true
	}
	for _, d := range demos {
		for _, g := range d.Traj.Gestures {
			if !vocab[g] {
				t.Fatalf("gesture %d outside Block Transfer vocabulary", g)
			}
		}
	}
}

func TestBlockTransferSequenceDeterministic(t *testing.T) {
	// Figure 3b: every Block Transfer demo follows the same cycle.
	demos, err := Generate(smallConfig(gesture.BlockTransfer, 3))
	if err != nil {
		t.Fatal(err)
	}
	want := []int{2, 12, 6, 5, 11}
	for i, d := range demos {
		seq := d.Traj.GestureSequence()
		if len(seq) != len(want) {
			t.Fatalf("demo %d sequence %v", i, seq)
		}
		for j := range want {
			if seq[j] != want[j] {
				t.Fatalf("demo %d sequence %v", i, seq)
			}
		}
	}
}

func TestEventsMatchUnsafeLabels(t *testing.T) {
	cfg := smallConfig(gesture.Suturing, 4)
	cfg.ErrorRate = 0.5 // force plenty of errors
	demos, err := Generate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	var sawEvent bool
	for _, d := range demos {
		for _, ev := range d.Events {
			sawEvent = true
			if ev.SegStart >= ev.SegEnd || ev.SegEnd > d.Traj.Len() {
				t.Fatalf("bad event bounds %+v", ev)
			}
			if ev.Onset < ev.SegStart || ev.Onset >= ev.SegEnd {
				t.Fatalf("onset outside segment: %+v", ev)
			}
			for i := ev.SegStart; i < ev.SegEnd; i++ {
				if !d.Traj.Unsafe[i] {
					t.Fatal("event frames not marked unsafe")
				}
				if d.Traj.Gestures[i] != int(ev.Gesture) {
					t.Fatal("event gesture label mismatch")
				}
			}
		}
		// Conversely, every unsafe frame must lie inside some event.
		for i, u := range d.Traj.Unsafe {
			if !u {
				continue
			}
			inside := false
			for _, ev := range d.Events {
				if i >= ev.SegStart && i < ev.SegEnd {
					inside = true
					break
				}
			}
			if !inside {
				t.Fatalf("unsafe frame %d outside all events", i)
			}
		}
	}
	if !sawEvent {
		t.Fatal("no error events generated at rate 0.5")
	}
}

func TestErrorRateControlsErrors(t *testing.T) {
	lo := smallConfig(gesture.Suturing, 5)
	lo.ErrorRate = 0.02
	hi := smallConfig(gesture.Suturing, 5)
	hi.ErrorRate = 0.6
	demosLo, _ := Generate(lo)
	demosHi, _ := Generate(hi)
	_, errLo := CountErroneousGestures(demosLo)
	_, errHi := CountErroneousGestures(demosHi)
	if errHi <= errLo {
		t.Errorf("error rate had no effect: lo=%d hi=%d", errLo, errHi)
	}
}

func TestSuturingGrammarTransitions(t *testing.T) {
	// Sampled sequences must only use transitions present in the grammar.
	g := suturingGrammar()
	rng := rand.New(rand.NewSource(6))
	for i := 0; i < 50; i++ {
		seq := SampleSequence(rng, gesture.Suturing)
		if len(seq) == 0 {
			t.Fatal("empty sequence")
		}
		if _, ok := g.start[seq[0]]; !ok {
			t.Fatalf("sequence starts at %v, not a start state", seq[0])
		}
		for j := 1; j < len(seq); j++ {
			if _, ok := g.transitions[seq[j-1]][seq[j]]; !ok {
				t.Fatalf("illegal transition %v -> %v", seq[j-1], seq[j])
			}
		}
	}
}

func TestSampleSequenceLengthBounds(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		g := grammarFor(gesture.Suturing)
		seq := SampleSequence(rng, gesture.Suturing)
		return len(seq) >= 1 && len(seq) <= g.maxLen
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

func TestTrajectoriesHelper(t *testing.T) {
	demos, _ := Generate(smallConfig(gesture.Suturing, 8))
	trajs := Trajectories(demos)
	if len(trajs) != len(demos) {
		t.Fatal("length mismatch")
	}
	for i := range trajs {
		if trajs[i] != demos[i].Traj {
			t.Fatal("trajectory pointer mismatch")
		}
	}
}

func TestSkillStrings(t *testing.T) {
	if Expert.errorProb() >= Novice.errorProb() {
		t.Error("experts must err less than novices")
	}
}

func TestTrialAndSubjectAssignment(t *testing.T) {
	cfg := smallConfig(gesture.Suturing, 9)
	cfg.NumDemos = 9
	cfg.NumTrials = 3
	demos, _ := Generate(cfg)
	trials := map[int]int{}
	for _, d := range demos {
		trials[d.Traj.Trial]++
		if d.Traj.Subject == "" {
			t.Error("missing subject tag")
		}
	}
	if len(trials) != 3 {
		t.Errorf("trials used: %v", trials)
	}
}

func TestPrototypesCoverAllVocabularies(t *testing.T) {
	for _, task := range []gesture.Task{gesture.Suturing, gesture.KnotTying, gesture.NeedlePassing, gesture.BlockTransfer} {
		for _, g := range task.Vocabulary() {
			if _, ok := prototypes[g]; !ok {
				t.Errorf("no prototype for %v (needed by %v)", g, task)
			}
		}
	}
}
