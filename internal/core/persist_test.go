package core

import (
	"bytes"
	"errors"
	"math"
	"math/rand"
	"testing"
)

func TestMonitorPersistRoundTrip(t *testing.T) {
	trajs := tinyDemos(t, 31, 3)
	gc := tinyGC(t, trajs[:2])
	el := tinyEL(t, trajs[:2])
	mon := NewMonitor(gc, el)
	mon.Threshold = 0.42

	var buf bytes.Buffer
	if err := mon.Encode(&buf); err != nil {
		t.Fatal(err)
	}
	restored, err := DecodeMonitor(&buf, rand.New(rand.NewSource(1)))
	if err != nil {
		t.Fatal(err)
	}
	if restored.Threshold != 0.42 {
		t.Errorf("threshold %v", restored.Threshold)
	}
	if restored.Errors.Config.Window != el.Config.Window {
		t.Error("error config not restored")
	}
	if restored.Gestures.Config.Window != gc.Config.Window {
		t.Error("gesture config not restored")
	}

	// Restored monitor must produce identical verdicts.
	orig, err := mon.Run(trajs[2])
	if err != nil {
		t.Fatal(err)
	}
	got, err := restored.Run(trajs[2])
	if err != nil {
		t.Fatal(err)
	}
	for i := range orig.Verdicts {
		if math.Abs(orig.Verdicts[i].Score-got.Verdicts[i].Score) > 1e-12 {
			t.Fatalf("frame %d: score %.9f vs %.9f", i,
				orig.Verdicts[i].Score, got.Verdicts[i].Score)
		}
		if orig.Verdicts[i].Gesture != got.Verdicts[i].Gesture {
			t.Fatalf("frame %d: gesture differs", i)
		}
	}
}

// TestMonitorPersistFile round-trips a ground-truth-context monitor, which
// has no gesture stage, through its serialized bundle.
func TestMonitorPersistFile(t *testing.T) {
	trajs := tinyDemos(t, 32, 2)
	el := tinyEL(t, trajs)
	mon := NewMonitor(nil, el)
	mon.UseGroundTruthGestures = true

	var buf bytes.Buffer
	if err := mon.Encode(&buf); err != nil {
		t.Fatal(err)
	}
	restored, err := DecodeMonitor(&buf, rand.New(rand.NewSource(2)))
	if err != nil {
		t.Fatal(err)
	}
	if restored.Gestures != nil {
		t.Error("gesture stage should be absent")
	}
	if !restored.UseGroundTruthGestures {
		t.Error("ground-truth flag lost")
	}
}

func TestPersistRequiresErrorLibrary(t *testing.T) {
	var buf bytes.Buffer
	if err := (&Monitor{}).Encode(&buf); err == nil {
		t.Error("expected error for monitor without stages")
	}
}

// TestDecodeRejectsMismatchedHeads: a stream runs every error head in one
// workspace, so DecodeMonitor refuses a bundle with a head whose layer
// shapes differ from the others', and NewStream refuses such a library.
func TestDecodeRejectsMismatchedHeads(t *testing.T) {
	el := tinyEL(t, tinyDemos(t, 33, 2))
	if len(el.PerGesture) == 0 || el.Global == nil {
		t.Fatal("fixture needs gesture heads and a global head")
	}
	odd := el.Config
	odd.Units = []int{el.Config.Units[0] + 1}
	for g := range el.PerGesture {
		el.PerGesture[g] = buildErrorNet(rand.New(rand.NewSource(1)), odd)
		break
	}
	mon := NewMonitor(nil, el)
	mon.UseGroundTruthGestures = true
	var buf bytes.Buffer
	if err := mon.Encode(&buf); err != nil {
		t.Fatal(err)
	}
	if _, err := DecodeMonitor(&buf, rand.New(rand.NewSource(2))); !errors.Is(err, ErrBadMonitorSpec) {
		t.Errorf("DecodeMonitor = %v, want ErrBadMonitorSpec", err)
	}
	if _, err := mon.NewStream([]int{1}); err == nil {
		t.Error("NewStream accepted error heads of different shapes")
	}
}
