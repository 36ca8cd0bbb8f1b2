package nn

import (
	"encoding/gob"
	"errors"
	"fmt"
	"io"
	"math/rand"
)

// ErrBadNetworkSpec is wrapped by every decode failure caused by a
// malformed or corrupt serialized network (unknown layer kind, impossible
// shape, weight-length mismatch). Callers can rely on errors.Is to tell
// corrupt-input failures apart from I/O errors; decode never panics on
// corrupt input.
var ErrBadNetworkSpec = errors.New("nn: bad network spec")

// layerSpec is the serializable description of one layer: its kind, shape
// hyper-parameters, and weights.
type layerSpec struct {
	Kind    string
	Ints    []int   // layer-specific shape parameters
	Float   float64 // layer-specific scalar (e.g. dropout p)
	Weights [][]float64
}

// netSpec is the serializable description of a network.
type netSpec struct {
	Layers []layerSpec
}

// specFor converts a live layer to its serializable form.
func specFor(l Layer) (layerSpec, error) {
	switch v := l.(type) {
	case *Dense:
		return layerSpec{Kind: "dense", Ints: []int{v.In, v.Out}, Weights: [][]float64{v.Weight.W, v.Bias.W}}, nil
	case *LSTM:
		return layerSpec{Kind: "lstm", Ints: []int{v.In, v.Hidden}, Weights: [][]float64{v.Wx.W, v.Wh.W, v.B.W}}, nil
	case *Conv1D:
		return layerSpec{Kind: "conv1d", Ints: []int{v.In, v.Out, v.K}, Weights: [][]float64{v.Weight.W, v.Bias.W}}, nil
	case *ReLU:
		return layerSpec{Kind: "relu"}, nil
	case *Dropout:
		return layerSpec{Kind: "dropout", Float: v.P}, nil
	case *TakeLast:
		return layerSpec{Kind: "takelast"}, nil
	case *GlobalMaxPool:
		return layerSpec{Kind: "gmp"}, nil
	case *Flatten:
		return layerSpec{Kind: "flatten"}, nil
	default:
		return layerSpec{}, fmt.Errorf("nn: cannot serialize layer of type %T", l)
	}
}

// maxLayerDim bounds any single layer dimension a serialized spec may
// claim. Far above any real model here; combined with the int64 product
// arithmetic in checkSpec it guarantees the expected weight lengths (at
// most 4*dim*dim*dim = 2^44) are computed without wrap-around on every
// platform — without this a crafted spec like in=1<<62, out=4 would wrap
// the product to a small number, validate against a tiny weight slice,
// and panic at inference time instead of failing decode.
const maxLayerDim = 1 << 14

// checkSpec validates a decoded layer spec before any allocation happens:
// the shape ints must be present, positive and bounded, and every weight
// tensor must have exactly the length the shape implies. Expected lengths
// are computed in int64 so a 3-factor conv product cannot overflow 32-bit
// int. This keeps corrupt input from panicking (index out of range) or
// silently producing a half-copied layer.
func checkSpec(s layerSpec, ints int, weightLens func() []int64) error {
	if len(s.Ints) != ints {
		return fmt.Errorf("%w: %s layer has %d shape ints, want %d", ErrBadNetworkSpec, s.Kind, len(s.Ints), ints)
	}
	for _, v := range s.Ints {
		if v <= 0 || v > maxLayerDim {
			return fmt.Errorf("%w: %s layer dimension %d outside (0, %d]", ErrBadNetworkSpec, s.Kind, v, maxLayerDim)
		}
	}
	want := weightLens()
	if len(s.Weights) != len(want) {
		return fmt.Errorf("%w: %s layer has %d weight tensors, want %d", ErrBadNetworkSpec, s.Kind, len(s.Weights), len(want))
	}
	for i, n := range want {
		if int64(len(s.Weights[i])) != n {
			return fmt.Errorf("%w: %s layer weight %d has %d values, want %d", ErrBadNetworkSpec, s.Kind, i, len(s.Weights[i]), n)
		}
	}
	return nil
}

// layerFrom reconstructs a live layer from its serialized form.
func layerFrom(s layerSpec, rng *rand.Rand) (Layer, error) {
	switch s.Kind {
	case "dense":
		if err := checkSpec(s, 2, func() []int64 {
			in, out := int64(s.Ints[0]), int64(s.Ints[1])
			return []int64{in * out, out}
		}); err != nil {
			return nil, err
		}
		d := NewDense(rng, s.Ints[0], s.Ints[1])
		copy(d.Weight.W, s.Weights[0])
		copy(d.Bias.W, s.Weights[1])
		return d, nil
	case "lstm":
		if err := checkSpec(s, 2, func() []int64 {
			in, h := int64(s.Ints[0]), int64(s.Ints[1])
			return []int64{4 * h * in, 4 * h * h, 4 * h}
		}); err != nil {
			return nil, err
		}
		l := NewLSTM(rng, s.Ints[0], s.Ints[1])
		copy(l.Wx.W, s.Weights[0])
		copy(l.Wh.W, s.Weights[1])
		copy(l.B.W, s.Weights[2])
		return l, nil
	case "conv1d":
		if err := checkSpec(s, 3, func() []int64 {
			in, out, k := int64(s.Ints[0]), int64(s.Ints[1]), int64(s.Ints[2])
			return []int64{out * k * in, out}
		}); err != nil {
			return nil, err
		}
		c := NewConv1D(rng, s.Ints[0], s.Ints[1], s.Ints[2])
		copy(c.Weight.W, s.Weights[0])
		copy(c.Bias.W, s.Weights[1])
		return c, nil
	case "relu":
		return &ReLU{}, nil
	case "dropout":
		if s.Float < 0 || s.Float >= 1 {
			return nil, fmt.Errorf("%w: dropout probability %v out of [0,1)", ErrBadNetworkSpec, s.Float)
		}
		return NewDropout(rng, s.Float), nil
	case "takelast":
		return &TakeLast{}, nil
	case "gmp":
		return &GlobalMaxPool{}, nil
	case "flatten":
		return &Flatten{}, nil
	default:
		return nil, fmt.Errorf("%w: unknown layer kind %q", ErrBadNetworkSpec, s.Kind)
	}
}

// Encode serializes the network's architecture and weights.
func (n *Network) Encode(w io.Writer) error {
	spec := netSpec{Layers: make([]layerSpec, len(n.Layers))}
	for i, l := range n.Layers {
		s, err := specFor(l)
		if err != nil {
			return err
		}
		spec.Layers[i] = s
	}
	return gob.NewEncoder(w).Encode(spec)
}

// DecodeNetwork reconstructs a network from Encode's output. rng seeds any
// stochastic layers (dropout) in the restored network. Corrupt input yields
// an error wrapping ErrBadNetworkSpec; it never panics.
func DecodeNetwork(r io.Reader, rng *rand.Rand) (*Network, error) {
	var spec netSpec
	if err := gob.NewDecoder(r).Decode(&spec); err != nil {
		return nil, fmt.Errorf("%w: decode: %v", ErrBadNetworkSpec, err)
	}
	if len(spec.Layers) == 0 {
		return nil, fmt.Errorf("%w: network has no layers", ErrBadNetworkSpec)
	}
	layers := make([]Layer, len(spec.Layers))
	for i, s := range spec.Layers {
		l, err := layerFrom(s, rng)
		if err != nil {
			return nil, err
		}
		layers[i] = l
	}
	return NewNetwork(layers...), nil
}
