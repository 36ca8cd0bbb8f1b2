package vision

import "math"

// SSIM computes the global Structural Similarity Index between two images
// of identical size over their luminance channels (Wang et al. 2004, the
// metric the paper uses to pinpoint the block-drop frame). The result lies
// in [-1, 1]; 1 means identical images.
func SSIM(a, b *Image) (float64, error) {
	if a.W != b.W || a.H != b.H {
		return 0, ErrSizeMismatch
	}
	ga, gb := a.Gray(), b.Gray()
	return ssimGray(ga, gb), nil
}

// ssimGray computes SSIM over two equal-length luminance slices.
func ssimGray(ga, gb []float64) float64 {
	n := float64(len(ga))
	if n == 0 {
		return 1
	}
	var muA, muB float64
	for i := range ga {
		muA += ga[i]
		muB += gb[i]
	}
	muA /= n
	muB /= n
	var varA, varB, cov float64
	for i := range ga {
		da, db := ga[i]-muA, gb[i]-muB
		varA += da * da
		varB += db * db
		cov += da * db
	}
	varA /= n
	varB /= n
	cov /= n
	const (
		l  = 1.0 // dynamic range of [0,1] luminance
		k1 = 0.01
		k2 = 0.03
	)
	c1 := (k1 * l) * (k1 * l)
	c2 := (k2 * l) * (k2 * l)
	return ((2*muA*muB + c1) * (2*cov + c2)) /
		((muA*muA + muB*muB + c1) * (varA + varB + c2))
}

// DropFrame scans a sequence of thresholded-region SSIM scores between
// consecutive frames and returns the index of the first frame whose
// similarity to its predecessor falls below minSSIM — the paper's method
// for finding "the exact frame (and the timestamp) of when the failure
// happened". Returns -1 when no discontinuity is found.
func DropFrame(frames []*Image, region ThresholdRange, minSSIM float64) int {
	if len(frames) < 2 {
		return -1
	}
	prev := maskedGray(frames[0], region)
	for i := 1; i < len(frames); i++ {
		cur := maskedGray(frames[i], region)
		if ssimGray(prev, cur) < minSSIM {
			return i
		}
		prev = cur
	}
	return -1
}

// maskedGray returns the luminance image with pixels outside the HSV
// threshold zeroed, isolating the tracked marker.
func maskedGray(im *Image, region ThresholdRange) []float64 {
	m := ThresholdHSV(im, region)
	g := im.Gray()
	for i := range g {
		if !m.Bits[i] {
			g[i] = 0
		}
	}
	return g
}

var _ = math.Sqrt // keep math imported for future windowed variants
