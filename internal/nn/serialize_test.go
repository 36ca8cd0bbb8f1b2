package nn

import (
	"bytes"
	"encoding/gob"
	"errors"
	"math"
	"math/rand"
	"testing"
)

// encodeSpec gob-encodes a raw netSpec, letting tests craft corrupt wire
// forms that Encode itself would never produce.
func encodeSpec(t *testing.T, spec netSpec) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := gob.NewEncoder(&buf).Encode(spec); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// TestDecodeNetworkRejectsCorruptSpecs pins the hardened decoder: shape
// ints and weight tensors that disagree must yield ErrBadNetworkSpec — not
// an index panic, and never a silently half-copied layer.
func TestDecodeNetworkRejectsCorruptSpecs(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	cases := map[string]netSpec{
		"no layers":     {},
		"unknown kind":  {Layers: []layerSpec{{Kind: "transformer"}}},
		"dense no ints": {Layers: []layerSpec{{Kind: "dense", Weights: [][]float64{{1}, {1}}}}},
		"dense negative dim": {Layers: []layerSpec{{
			Kind: "dense", Ints: []int{-3, 2}, Weights: [][]float64{{1}, {1}}}}},
		"dense oversized dims": {Layers: []layerSpec{{
			Kind: "dense", Ints: []int{1 << 20, 4}, Weights: [][]float64{{}, {1, 2, 3, 4}}}}},
		"lstm oversized dims": {Layers: []layerSpec{{
			Kind: "lstm", Ints: []int{1 << 20, 1 << 20}, Weights: [][]float64{{}, {}, {}}}}},
		"dense short weights": {Layers: []layerSpec{{
			Kind: "dense", Ints: []int{4, 2}, Weights: [][]float64{{1, 2}, {1, 2}}}}},
		"dense missing bias": {Layers: []layerSpec{{
			Kind: "dense", Ints: []int{1, 1}, Weights: [][]float64{{1}}}}},
		"lstm short Wx": {Layers: []layerSpec{{
			Kind: "lstm", Ints: []int{2, 3}, Weights: [][]float64{{1}, make([]float64, 36), make([]float64, 12)}}}},
		"conv wrong kernel": {Layers: []layerSpec{{
			Kind: "conv1d", Ints: []int{2, 2, 3}, Weights: [][]float64{make([]float64, 5), make([]float64, 2)}}}},
		"dropout p=1": {Layers: []layerSpec{{Kind: "dropout", Float: 1.0}}},
		"dropout NaN-adjacent": {Layers: []layerSpec{{
			Kind: "dropout", Float: math.Inf(1)}}},
	}
	for name, spec := range cases {
		t.Run(name, func(t *testing.T) {
			_, err := DecodeNetwork(bytes.NewReader(encodeSpec(t, spec)), rng)
			if !errors.Is(err, ErrBadNetworkSpec) {
				t.Fatalf("err = %v, want ErrBadNetworkSpec", err)
			}
		})
	}
}

// TestDecodeNetworkGarbageBytes pins the gob-level failure path.
func TestDecodeNetworkGarbageBytes(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for _, data := range [][]byte{nil, {0x01}, bytes.Repeat([]byte{0xff}, 64)} {
		if _, err := DecodeNetwork(bytes.NewReader(data), rng); !errors.Is(err, ErrBadNetworkSpec) {
			t.Fatalf("garbage decode err = %v, want ErrBadNetworkSpec", err)
		}
	}
}

// TestDecodeNetworkRoundTripStillExact guards that hardening didn't change
// the happy path: weights survive encode/decode bit-exactly.
func TestDecodeNetworkRoundTripStillExact(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	net := BuildConv1D(rng, Conv1DConfig{
		InputDim: 4, ConvUnits: []int{6, 4}, KernelSize: 3, DenseUnits: 5, NumClasses: 2, Dropout: 0.1,
	})
	var buf bytes.Buffer
	if err := net.Encode(&buf); err != nil {
		t.Fatal(err)
	}
	got, err := DecodeNetwork(&buf, rand.New(rand.NewSource(8)))
	if err != nil {
		t.Fatal(err)
	}
	x := make([][]float64, 5)
	for i := range x {
		x[i] = []float64{0.1 * float64(i), -0.2, 0.3, 0.05 * float64(i)}
	}
	want := net.Predict(x)
	have := got.Predict(x)
	for i := range want {
		if want[i] != have[i] {
			t.Fatalf("class %d: %v != %v", i, want[i], have[i])
		}
	}
}
