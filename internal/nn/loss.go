package nn

import "math"

// Softmax converts logits into a probability distribution, numerically
// stabilized by max subtraction.
func Softmax(logits []float64) []float64 {
	return SoftmaxInto(make([]float64, len(logits)), logits)
}

// SoftmaxInto writes softmax(logits) into out, which must have the same
// length, and returns out. It is the allocation-free form used by the
// streaming inference path.
func SoftmaxInto(out, logits []float64) []float64 {
	maxL := math.Inf(-1)
	for _, v := range logits {
		if v > maxL {
			maxL = v
		}
	}
	var sum float64
	for i, v := range logits {
		out[i] = math.Exp(v - maxL)
		sum += out[i]
	}
	if sum > 0 {
		for i := range out {
			out[i] /= sum
		}
	}
	return out
}

// CrossEntropyLoss computes the categorical cross-entropy of softmax(logits)
// against a target class index, together with the gradient of the loss with
// respect to the logits (probs - onehot).
func CrossEntropyLoss(logits []float64, target int) (loss float64, grad []float64) {
	return WeightedCrossEntropyLoss(logits, target, 1) // x*1 == x bit for bit
}

// weightedCrossEntropyInto is WeightedCrossEntropyLoss writing the
// gradient into grad, which must have the length of logits.
func weightedCrossEntropyInto(grad, logits []float64, target int, weight float64) float64 {
	SoftmaxInto(grad, logits)
	loss := nll(grad, target)
	grad[target] -= 1
	for i := range grad {
		grad[i] *= weight
	}
	return loss * weight
}

// nll is the negative log-likelihood of target under probs, with the
// probability floored at 1e-15.
func nll(probs []float64, target int) float64 {
	p := probs[target]
	if p < 1e-15 {
		p = 1e-15
	}
	return -math.Log(p)
}

// WeightedCrossEntropyLoss is CrossEntropyLoss with a per-class weight
// multiplied into both loss and gradient, used to handle class imbalance in
// the safe/unsafe detection stage.
func WeightedCrossEntropyLoss(logits []float64, target int, weight float64) (float64, []float64) {
	grad := make([]float64, len(logits))
	return weightedCrossEntropyInto(grad, logits, target, weight), grad
}

// Argmax returns the index of the maximum element, or -1 for empty input.
func Argmax(xs []float64) int {
	if len(xs) == 0 {
		return -1
	}
	best, bestI := xs[0], 0
	for i, v := range xs[1:] {
		if v > best {
			best, bestI = v, i+1
		}
	}
	return bestI
}
