package kinematics

import (
	"math"
	"math/rand"
	"reflect"
	"testing"
	"testing/quick"
)

func TestFrameAccessors(t *testing.T) {
	var f Frame
	f.SetCartesian(Left, 1, 2, 3)
	f.SetCartesian(Right, 4, 5, 6)
	f.SetGrasperAngle(Left, 0.7)
	f.SetGrasperAngle(Right, 0.9)
	f.SetLinearVelocity(Left, 0.1, 0.2, 0.3)
	f.SetAngularVelocity(Right, 1.1, 1.2, 1.3)

	if x, y, z := f.Cartesian(Left); x != 1 || y != 2 || z != 3 {
		t.Errorf("left cartesian = (%v,%v,%v)", x, y, z)
	}
	if x, y, z := f.Cartesian(Right); x != 4 || y != 5 || z != 6 {
		t.Errorf("right cartesian = (%v,%v,%v)", x, y, z)
	}
	if f.GrasperAngle(Left) != 0.7 || f.GrasperAngle(Right) != 0.9 {
		t.Error("grasper angles wrong")
	}
	if vx, vy, vz := f.LinearVelocity(Left); vx != 0.1 || vy != 0.2 || vz != 0.3 {
		t.Errorf("left velocity = (%v,%v,%v)", vx, vy, vz)
	}
	if wx, wy, wz := f.AngularVelocity(Right); wx != 1.1 || wy != 1.2 || wz != 1.3 {
		t.Errorf("right angular velocity = (%v,%v,%v)", wx, wy, wz)
	}
}

func TestManipulatorBlocksDisjoint(t *testing.T) {
	var f Frame
	f.SetCartesian(Left, 1, 1, 1)
	if x, y, z := f.Cartesian(Right); x != 0 || y != 0 || z != 0 {
		t.Error("setting left cartesian leaked into right block")
	}
}

func TestRotationOrthonormal(t *testing.T) {
	f := func(theta float64) bool {
		if math.IsNaN(theta) || math.IsInf(theta, 0) {
			return true
		}
		for _, r := range [][9]float64{RotationX(theta), RotationY(theta), RotationZ(theta)} {
			// R * R^T must be identity
			var rt [9]float64
			for i := 0; i < 3; i++ {
				for j := 0; j < 3; j++ {
					rt[i*3+j] = r[j*3+i]
				}
			}
			prod := MulRotation(r, rt)
			id := IdentityRotation()
			for k := range prod {
				if math.Abs(prod[k]-id[k]) > 1e-9 {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func makeTraj(gestures []int, unsafe []bool) *Trajectory {
	tr := &Trajectory{HzRate: 30}
	for i := range gestures {
		var f Frame
		f.SetCartesian(Left, float64(i), 0, 0)
		tr.Frames = append(tr.Frames, f)
	}
	tr.Gestures = gestures
	tr.Unsafe = unsafe
	return tr
}

func TestSegments(t *testing.T) {
	tr := makeTraj(
		[]int{1, 1, 2, 2, 2, 3},
		[]bool{false, false, false, true, false, false},
	)
	segs := tr.Segments()
	if len(segs) != 3 {
		t.Fatalf("got %d segments, want 3", len(segs))
	}
	if segs[0].Gesture != 1 || segs[0].Len() != 2 || segs[0].Unsafe {
		t.Errorf("segment 0 wrong: %+v", segs[0])
	}
	if segs[1].Gesture != 2 || !segs[1].Unsafe {
		t.Errorf("segment 1 should be unsafe: %+v", segs[1])
	}
	if segs[2].Gesture != 3 || segs[2].Unsafe {
		t.Errorf("segment 2 wrong: %+v", segs[2])
	}
}

func TestGestureSequence(t *testing.T) {
	tr := makeTraj([]int{5, 5, 2, 2, 5}, nil)
	seq := tr.GestureSequence()
	want := []int{5, 2, 5}
	if len(seq) != len(want) {
		t.Fatalf("sequence %v, want %v", seq, want)
	}
	for i := range want {
		if seq[i] != want[i] {
			t.Fatalf("sequence %v, want %v", seq, want)
		}
	}
}

func TestValidate(t *testing.T) {
	if err := (&Trajectory{HzRate: 30}).Validate(); err == nil {
		t.Error("empty trajectory must fail validation")
	}
	tr := makeTraj([]int{1, 2}, nil)
	tr.Gestures = []int{1} // mismatched
	if err := tr.Validate(); err == nil {
		t.Error("mismatched labels must fail validation")
	}
	tr2 := makeTraj([]int{1, 2}, []bool{false, true})
	if err := tr2.Validate(); err != nil {
		t.Errorf("valid trajectory rejected: %v", err)
	}
}

func TestDownsamplePreservesUnsafe(t *testing.T) {
	tr := makeTraj(
		[]int{1, 1, 1, 1, 1, 1},
		[]bool{false, true, false, false, false, false},
	)
	ds := tr.Downsample(3)
	if ds.Len() != 2 {
		t.Fatalf("downsampled length %d, want 2", ds.Len())
	}
	if !ds.Unsafe[0] {
		t.Error("unsafe flag in skipped run was lost")
	}
	if ds.HzRate != 10 {
		t.Errorf("rate %v, want 10", ds.HzRate)
	}
}

func TestCloneIsDeep(t *testing.T) {
	tr := makeTraj([]int{1, 2}, []bool{false, true})
	cp := tr.Clone()
	cp.Frames[0].SetCartesian(Left, 99, 0, 0)
	cp.Gestures[0] = 42
	cp.Unsafe[0] = true
	if x, _, _ := tr.Frames[0].Cartesian(Left); x == 99 {
		t.Error("clone shares frame storage")
	}
	if tr.Gestures[0] == 42 || tr.Unsafe[0] {
		t.Error("clone shares label storage")
	}
}

func TestUnsafeFraction(t *testing.T) {
	tr := makeTraj([]int{1, 1, 1, 1}, []bool{true, false, true, false})
	if f := tr.UnsafeFraction(); f != 0.5 {
		t.Errorf("unsafe fraction %v, want 0.5", f)
	}
}

func TestFiniteCheck(t *testing.T) {
	tr := makeTraj([]int{1}, nil)
	if err := tr.FiniteCheck(); err != nil {
		t.Errorf("finite trajectory flagged: %v", err)
	}
	tr.Frames[0][3] = math.NaN()
	if err := tr.FiniteCheck(); err == nil {
		t.Error("NaN not detected")
	}
}

func TestFeatureSetIndices(t *testing.T) {
	if d := AllFeatures().Dim(); d != FrameSize {
		t.Errorf("All dim %d, want %d", d, FrameSize)
	}
	if d := CRG().Dim(); d != 26 { // (3+9+1)*2
		t.Errorf("CRG dim %d, want 26", d)
	}
	if d := CG().Dim(); d != 8 { // (3+1)*2
		t.Errorf("CG dim %d, want 8", d)
	}
	// Indices must be unique and in range.
	seen := map[int]bool{}
	for _, i := range AllFeatures().Indices() {
		if i < 0 || i >= FrameSize || seen[i] {
			t.Fatalf("bad or duplicate index %d", i)
		}
		seen[i] = true
	}
}

func TestFeatureExtract(t *testing.T) {
	var f Frame
	f.SetCartesian(Left, 1, 2, 3)
	f.SetGrasperAngle(Left, 0.5)
	row := CG().Extract(&f, nil)
	if len(row) != 8 {
		t.Fatalf("row length %d", len(row))
	}
	if row[0] != 1 || row[1] != 2 || row[2] != 3 || row[3] != 0.5 {
		t.Errorf("left block = %v", row[:4])
	}
}

func TestStandardizer(t *testing.T) {
	rows := [][]float64{{1, 10}, {3, 10}, {5, 10}}
	s := FitStandardizer(rows)
	if math.Abs(s.Mean[0]-3) > 1e-12 {
		t.Errorf("mean %v", s.Mean)
	}
	if s.Std[1] != 1 {
		t.Errorf("zero-variance column std = %v, want 1", s.Std[1])
	}
	out := s.Transform([]float64{3, 10})
	if math.Abs(out[0]) > 1e-12 || math.Abs(out[1]) > 1e-12 {
		t.Errorf("transform of mean row = %v, want zeros", out)
	}
}

func TestStandardizerPropertyZeroMeanUnitVar(t *testing.T) {
	f := func(seed int64) bool {
		if seed < 0 {
			seed = -seed
		}
		rows := make([][]float64, 50)
		v := float64(seed%97) + 1
		for i := range rows {
			rows[i] = []float64{v * float64(i), -v * float64(i*i%13)}
		}
		s := FitStandardizer(rows)
		cp := make([][]float64, len(rows))
		for i := range rows {
			cp[i] = append([]float64(nil), rows[i]...)
		}
		s.TransformAll(cp)
		for j := 0; j < 2; j++ {
			var mean float64
			for i := range cp {
				mean += cp[i][j]
			}
			mean /= float64(len(cp))
			if math.Abs(mean) > 1e-9 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// TestExtractorMatchesExtract pins the zero-allocation extraction path to
// the reference FeatureSet.Extract, and verifies it really is
// allocation-free on a reused row.
func TestExtractorMatchesExtract(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	sets := []FeatureSet{AllFeatures(), CRG(), CG(), {FeatVelocity}}
	var f Frame
	for i := range f {
		f[i] = rng.NormFloat64()
	}
	for _, fs := range sets {
		ext := fs.NewExtractor()
		if ext.Dim() != fs.Dim() {
			t.Fatalf("%s: extractor dim %d vs set dim %d", fs, ext.Dim(), fs.Dim())
		}
		want := fs.Extract(&f, nil)
		row := make([]float64, ext.Dim())
		got := ext.ExtractInto(&f, row)
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("%s: extractor row %v vs Extract %v", fs, got, want)
		}
		allocs := testing.AllocsPerRun(100, func() {
			ext.ExtractInto(&f, row)
		})
		if allocs != 0 {
			t.Errorf("%s: warm ExtractInto allocates %.1f objects/call, want 0", fs, allocs)
		}
	}
}
