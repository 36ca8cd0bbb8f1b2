package vision

import (
	"math"
	"testing"
	"testing/quick"
)

func TestRGBToHSVKnownColors(t *testing.T) {
	cases := []struct {
		c    RGB
		h    float64
		s, v float64
	}{
		{RGB{255, 0, 0}, 0, 1, 1},
		{RGB{0, 255, 0}, 120, 1, 1},
		{RGB{0, 0, 255}, 240, 1, 1},
		{RGB{255, 255, 255}, 0, 0, 1},
		{RGB{0, 0, 0}, 0, 0, 0},
	}
	for _, c := range cases {
		got := RGBToHSV(c.c)
		if math.Abs(got.H-c.h) > 1 || math.Abs(got.S-c.s) > 0.01 || math.Abs(got.V-c.v) > 0.01 {
			t.Errorf("RGBToHSV(%v) = %+v, want H=%v S=%v V=%v", c.c, got, c.h, c.s, c.v)
		}
	}
}

func TestHSVRangesProperty(t *testing.T) {
	f := func(r, g, b uint8) bool {
		h := RGBToHSV(RGB{r, g, b})
		return h.H >= 0 && h.H < 360 && h.S >= 0 && h.S <= 1 && h.V >= 0 && h.V <= 1
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestThresholdHSVWithWrap(t *testing.T) {
	im := NewImage(4, 1)
	im.Set(0, 0, RGB{255, 0, 0})  // red, hue 0
	im.Set(1, 0, RGB{255, 0, 30}) // red-magenta, hue ~353
	im.Set(2, 0, RGB{0, 255, 0})  // green
	im.Set(3, 0, RGB{60, 60, 60}) // gray
	m := ThresholdHSV(im, ThresholdRange{HLo: 340, HHi: 20, SLo: 0.5, SHi: 1, VLo: 0.3, VHi: 1})
	if !m.Bits[0] || !m.Bits[1] {
		t.Error("red pixels should match wrapped range")
	}
	if m.Bits[2] || m.Bits[3] {
		t.Error("green/gray pixels should not match")
	}
	if m.Count() != 2 {
		t.Errorf("count %d", m.Count())
	}
}

func TestImageBounds(t *testing.T) {
	im := NewImage(3, 3)
	im.Set(-1, 0, RGB{1, 1, 1}) // ignored
	im.Set(5, 5, RGB{1, 1, 1})  // ignored
	if (im.At(-1, 0) != RGB{}) || (im.At(9, 9) != RGB{}) {
		t.Error("out-of-bounds reads must be black")
	}
}

func TestSSIMIdenticalAndDifferent(t *testing.T) {
	a := NewImage(16, 16)
	a.FillRect(2, 2, 10, 10, RGB{200, 50, 50})
	same, err := SSIM(a, a.Clone())
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(same-1) > 1e-9 {
		t.Errorf("SSIM(a,a) = %v, want 1", same)
	}
	b := NewImage(16, 16)
	b.FillRect(8, 8, 16, 16, RGB{20, 200, 50})
	diff, err := SSIM(a, b)
	if err != nil {
		t.Fatal(err)
	}
	if diff >= same {
		t.Errorf("SSIM of different images %v must be below identical %v", diff, same)
	}
}

func TestSSIMSizeMismatch(t *testing.T) {
	if _, err := SSIM(NewImage(2, 2), NewImage(3, 3)); err == nil {
		t.Error("expected ErrSizeMismatch")
	}
}

func TestConnectedComponents(t *testing.T) {
	m := &Mask{W: 10, H: 10, Bits: make([]bool, 100)}
	// Two components: a 3x3 block and a 2x1 strip.
	for y := 1; y < 4; y++ {
		for x := 1; x < 4; x++ {
			m.Bits[y*10+x] = true
		}
	}
	m.Bits[8*10+7] = true
	m.Bits[8*10+8] = true
	comps := ConnectedComponents(m)
	if len(comps) != 2 {
		t.Fatalf("got %d components, want 2", len(comps))
	}
	if comps[0].Area != 9 || comps[1].Area != 2 {
		t.Errorf("areas %d, %d", comps[0].Area, comps[1].Area)
	}
	if math.Abs(comps[0].Centroid.X-2) > 1e-9 || math.Abs(comps[0].Centroid.Y-2) > 1e-9 {
		t.Errorf("centroid %+v, want (2,2)", comps[0].Centroid)
	}
	if comps[0].MinX != 1 || comps[0].MaxX != 4 {
		t.Errorf("bbox [%d,%d)", comps[0].MinX, comps[0].MaxX)
	}
	// 3x3 block: 8 boundary pixels (all except center).
	if len(comps[0].Contour) != 8 {
		t.Errorf("contour size %d, want 8", len(comps[0].Contour))
	}
}

func TestLargestComponentEmpty(t *testing.T) {
	m := &Mask{W: 4, H: 4, Bits: make([]bool, 16)}
	if _, ok := LargestComponent(m); ok {
		t.Error("empty mask should have no components")
	}
}

func TestTrackCentroidFollowsBlock(t *testing.T) {
	red := ThresholdRange{HLo: 340, HHi: 20, SLo: 0.5, SHi: 1, VLo: 0.3, VHi: 1}
	var frames []*Image
	for i := 0; i < 5; i++ {
		im := NewImage(32, 32)
		im.FillRect(i*4, 10, i*4+4, 14, RGB{220, 30, 30})
		frames = append(frames, im)
	}
	trace := TrackCentroid(frames, red)
	for i := 1; i < len(trace); i++ {
		if trace[i].X <= trace[i-1].X {
			t.Errorf("centroid not moving right: %v", trace)
		}
	}
}

func TestDTWProperties(t *testing.T) {
	a := []Point2{{0, 0}, {1, 0}, {2, 0}}
	if d := DTW(a, a); math.Abs(d) > 1e-12 {
		t.Errorf("DTW(a,a) = %v", d)
	}
	b := []Point2{{0, 1}, {1, 1}, {2, 1}}
	if d := DTW(a, b); math.Abs(d-3) > 1e-9 { // each step offset by 1
		t.Errorf("DTW = %v, want 3", d)
	}
	// symmetry
	if math.Abs(DTW(a, b)-DTW(b, a)) > 1e-12 {
		t.Error("DTW not symmetric")
	}
	// time-warp invariance: duplicated points shouldn't add cost
	aw := []Point2{{0, 0}, {0, 0}, {1, 0}, {2, 0}, {2, 0}}
	if d := DTW(a, aw); math.Abs(d) > 1e-12 {
		t.Errorf("DTW with duplicates = %v, want 0", d)
	}
}

func TestNormalizedDTW(t *testing.T) {
	a := []Point2{{0, 0}, {1, 0}}
	b := []Point2{{0, 2}, {1, 2}}
	if d := NormalizedDTW(a, b); math.Abs(d-2) > 1e-9 {
		t.Errorf("normalized DTW = %v, want 2", d)
	}
	if !math.IsInf(NormalizedDTW(nil, a), 1) {
		t.Error("empty trace must be +Inf")
	}
}

func TestDropFrameFindsDiscontinuity(t *testing.T) {
	red := ThresholdRange{HLo: 340, HHi: 20, SLo: 0.5, SHi: 1, VLo: 0.3, VHi: 1}
	var frames []*Image
	for i := 0; i < 10; i++ {
		im := NewImage(32, 32)
		if i < 6 {
			// block moves smoothly
			im.FillRect(10+i, 10, 14+i, 14, RGB{220, 30, 30})
		} else {
			// block teleports to the floor (dropped)
			im.FillRect(2, 28, 6, 32, RGB{220, 30, 30})
		}
		frames = append(frames, im)
	}
	drop := DropFrame(frames, red, 0.5)
	if drop != 6 {
		t.Errorf("drop frame = %d, want 6", drop)
	}
	// No drop in a static sequence.
	static := []*Image{frames[0], frames[0].Clone(), frames[0].Clone()}
	if d := DropFrame(static, red, 0.5); d != -1 {
		t.Errorf("static sequence drop = %d, want -1", d)
	}
}
