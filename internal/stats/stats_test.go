package stats

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestBinaryConfusionMetrics(t *testing.T) {
	var c BinaryConfusion
	// 8 TP, 2 FN, 3 FP, 7 TN
	for i := 0; i < 8; i++ {
		c.Add(true, true)
	}
	for i := 0; i < 2; i++ {
		c.Add(false, true)
	}
	for i := 0; i < 3; i++ {
		c.Add(true, false)
	}
	for i := 0; i < 7; i++ {
		c.Add(false, false)
	}
	if c.Total() != 20 {
		t.Fatalf("total %d", c.Total())
	}
	if got := c.TPR(); math.Abs(got-0.8) > 1e-12 {
		t.Errorf("TPR %v", got)
	}
	if got := c.TNR(); math.Abs(got-0.7) > 1e-12 {
		t.Errorf("TNR %v", got)
	}
	if got := c.PPV(); math.Abs(got-8.0/11) > 1e-12 {
		t.Errorf("PPV %v", got)
	}
	if got := c.NPV(); math.Abs(got-7.0/9) > 1e-12 {
		t.Errorf("NPV %v", got)
	}
	wantF1 := 2 * (8.0 / 11) * 0.8 / (8.0/11 + 0.8)
	if got := c.F1(); math.Abs(got-wantF1) > 1e-12 {
		t.Errorf("F1 %v, want %v", got, wantF1)
	}
	if got := c.Accuracy(); math.Abs(got-0.75) > 1e-12 {
		t.Errorf("accuracy %v", got)
	}
}

func TestBinaryConfusionEmptyDenominators(t *testing.T) {
	var c BinaryConfusion
	for _, v := range []float64{c.TPR(), c.TNR(), c.PPV(), c.NPV(), c.F1(), c.Accuracy()} {
		if v != 0 {
			t.Errorf("empty confusion produced %v, want 0", v)
		}
	}
}

func TestMultiConfusion(t *testing.T) {
	m := NewMultiConfusion(3)
	m.Add(0, 0)
	m.Add(0, 1)
	m.Add(1, 1)
	m.Add(2, 2)
	m.Add(-1, 0) // ignored
	m.Add(0, 5)  // ignored
	if m.Total() != 4 {
		t.Fatalf("total %d", m.Total())
	}
	if acc := m.Accuracy(); math.Abs(acc-0.75) > 1e-12 {
		t.Errorf("accuracy %v", acc)
	}
}

func TestPerfectAUC(t *testing.T) {
	scores := []float64{0.9, 0.8, 0.2, 0.1}
	labels := []bool{true, true, false, false}
	if auc := AUC(scores, labels); math.Abs(auc-1) > 1e-12 {
		t.Errorf("perfect AUC = %v", auc)
	}
	// Inverted scores -> AUC 0.
	if auc := AUC([]float64{0.1, 0.2, 0.8, 0.9}, labels); math.Abs(auc) > 1e-12 {
		t.Errorf("inverted AUC = %v", auc)
	}
}

func TestDegenerateAUC(t *testing.T) {
	if auc := AUC([]float64{0.5, 0.6}, []bool{true, true}); auc != 0.5 {
		t.Errorf("single-class AUC = %v, want 0.5 by convention", auc)
	}
}

func TestAUCWithTies(t *testing.T) {
	// All scores equal: AUC must be exactly 0.5.
	scores := []float64{0.5, 0.5, 0.5, 0.5}
	labels := []bool{true, false, true, false}
	if auc := AUC(scores, labels); math.Abs(auc-0.5) > 1e-12 {
		t.Errorf("tied AUC = %v", auc)
	}
}

func TestROCEndpointsAndMonotonicity(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 20 + rng.Intn(50)
		scores := make([]float64, n)
		labels := make([]bool, n)
		for i := range scores {
			scores[i] = rng.Float64()
			labels[i] = rng.Float64() < 0.4
		}
		curve := ROC(scores, labels)
		if len(curve) < 2 {
			return false
		}
		if curve[0].FPR != 0 || curve[0].TPR != 0 {
			return false
		}
		last := curve[len(curve)-1]
		if math.Abs(last.FPR-1) > 1e-9 && math.Abs(last.TPR-1) > 1e-9 {
			// one of them must reach 1; with both classes present, both do
			return false
		}
		for i := 1; i < len(curve); i++ {
			if curve[i].FPR < curve[i-1].FPR-1e-12 || curve[i].TPR < curve[i-1].TPR-1e-12 {
				return false
			}
		}
		auc := AUC(scores, labels)
		return auc >= 0 && auc <= 1
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

func TestAUCInvariantToMonotoneTransform(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	n := 60
	scores := make([]float64, n)
	labels := make([]bool, n)
	for i := range scores {
		scores[i] = rng.NormFloat64()
		labels[i] = rng.Float64() < 0.5
	}
	a1 := AUC(scores, labels)
	transformed := make([]float64, n)
	for i, s := range scores {
		transformed[i] = math.Atan(3*s) + 10
	}
	a2 := AUC(transformed, labels)
	if math.Abs(a1-a2) > 1e-9 {
		t.Errorf("AUC changed under monotone transform: %v vs %v", a1, a2)
	}
}

func TestF1AtThreshold(t *testing.T) {
	scores := []float64{0.9, 0.7, 0.3, 0.1}
	labels := []bool{true, true, false, false}
	if f1 := F1AtThreshold(scores, labels, 0.5); math.Abs(f1-1) > 1e-12 {
		t.Errorf("F1@0.5 = %v", f1)
	}
	if f1 := F1AtThreshold(scores, labels, 0.0); math.Abs(f1-2.0/3) > 1e-12 {
		t.Errorf("F1@0 = %v", f1) // all positive: P=0.5 R=1 -> 2/3
	}
}

func TestSummaryStats(t *testing.T) {
	xs := []float64{1, 2, 3, 4, 5}
	if m := Mean(xs); m != 3 {
		t.Errorf("mean %v", m)
	}
	if sd := StdDev(xs); math.Abs(sd-math.Sqrt(2)) > 1e-12 {
		t.Errorf("stddev %v", sd)
	}
	if Min(xs) != 1 || Max(xs) != 5 {
		t.Error("min/max wrong")
	}
	if Mean(nil) != 0 || StdDev(nil) != 0 {
		t.Error("empty-input stats must be 0")
	}
}

func TestKDEIntegratesToOne(t *testing.T) {
	k, err := NewKDE([]float64{-1, 0, 0.5, 1, 2}, 0)
	if err != nil {
		t.Fatal(err)
	}
	xs, ys := k.Grid(2000)
	var integral float64
	for i := 1; i < len(xs); i++ {
		integral += (ys[i] + ys[i-1]) / 2 * (xs[i] - xs[i-1])
	}
	if math.Abs(integral-1) > 0.02 {
		t.Errorf("KDE integral = %v, want ~1", integral)
	}
}

func TestKDEEmptyInput(t *testing.T) {
	if _, err := NewKDE(nil, 0); err == nil {
		t.Error("expected ErrEmpty")
	}
}

func TestKDEDensityPeaksAtData(t *testing.T) {
	k, _ := NewKDE([]float64{0, 0, 0, 0.1, -0.1}, 0)
	if k.Density(0) <= k.Density(3) {
		t.Error("density at data cluster must exceed density far away")
	}
}

func TestJSDivergenceProperties(t *testing.T) {
	p := []float64{0.5, 0.3, 0.2}
	q := []float64{0.2, 0.3, 0.5}
	d1 := JSDivergence(p, q)
	d2 := JSDivergence(q, p)
	if math.Abs(d1-d2) > 1e-12 {
		t.Errorf("JSD not symmetric: %v vs %v", d1, d2)
	}
	if d1 < 0 || d1 > math.Log(2)+1e-9 {
		t.Errorf("JSD out of [0, ln2]: %v", d1)
	}
	if d := JSDivergence(p, p); math.Abs(d) > 1e-12 {
		t.Errorf("JSD(p,p) = %v", d)
	}
	// Disjoint distributions reach the ln 2 maximum.
	if d := JSDivergence([]float64{1, 0}, []float64{0, 1}); math.Abs(d-math.Log(2)) > 1e-9 {
		t.Errorf("disjoint JSD = %v, want ln2", d)
	}
}

func TestJSDivergencePropertyBased(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 4 + rng.Intn(10)
		p := make([]float64, n)
		q := make([]float64, n)
		var sp, sq float64
		for i := range p {
			p[i], q[i] = rng.Float64(), rng.Float64()
			sp += p[i]
			sq += q[i]
		}
		for i := range p {
			p[i] /= sp
			q[i] /= sq
		}
		d := JSDivergence(p, q)
		drev := JSDivergence(q, p)
		return d >= -1e-12 && d <= math.Log(2)+1e-9 && math.Abs(d-drev) < 1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

func TestJSDivergenceSamples(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	a := make([]float64, 200)
	b := make([]float64, 200)
	c := make([]float64, 200)
	for i := range a {
		a[i] = rng.NormFloat64()
		b[i] = rng.NormFloat64() // same distribution
		c[i] = rng.NormFloat64() + 5
	}
	dSame, err := JSDivergenceSamples(a, b, 256)
	if err != nil {
		t.Fatal(err)
	}
	dDiff, err := JSDivergenceSamples(a, c, 256)
	if err != nil {
		t.Fatal(err)
	}
	if dSame >= dDiff {
		t.Errorf("JSD(same)=%v should be < JSD(shifted)=%v", dSame, dDiff)
	}
	if dDiff < 0.5 {
		t.Errorf("well-separated distributions JSD = %v, expected near ln2", dDiff)
	}
}
