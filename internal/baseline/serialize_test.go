package baseline

import (
	"bytes"
	"encoding/gob"
	"errors"
	"slices"
	"testing"

	"repro/internal/kinematics"
)

// encodeSkipChainSpec crafts raw wire bytes for corrupt-input tests.
func encodeSkipChainSpec(t *testing.T, spec skipChainSpec) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := gob.NewEncoder(&buf).Encode(spec); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// TestSkipChainUnmarshalRejectsIncompleteTables pins the transition-table
// completeness check: a missing row would read as log-probability 0
// (certainty) and silently skew every decode, so it must be refused.
func TestSkipChainUnmarshalRejectsIncompleteTables(t *testing.T) {
	valid := skipChainSpec{
		SkipLag:  5,
		Classes:  []int{1, 2},
		Means:    map[int][]float64{1: {0}, 2: {1}},
		Vars:     map[int][]float64{1: {1}, 2: {1}},
		LogPrior: map[int]float64{1: -0.7, 2: -0.7},
		LogTrans: map[int]map[int]float64{1: {1: -1, 2: -1}, 2: {1: -1, 2: -1}},
		LogSkip:  map[int]map[int]float64{1: {1: -1, 2: -1}, 2: {1: -1, 2: -1}},
	}
	if err := new(SkipChain).UnmarshalBinary(encodeSkipChainSpec(t, valid)); err != nil {
		t.Fatalf("valid spec rejected: %v", err)
	}

	cases := map[string]func(*skipChainSpec){
		"nil trans table":  func(s *skipChainSpec) { s.LogTrans = nil },
		"missing row":      func(s *skipChainSpec) { s.LogTrans = map[int]map[int]float64{1: {1: -1, 2: -1}} },
		"missing cell":     func(s *skipChainSpec) { s.LogSkip[2] = map[int]float64{1: -1} },
		"missing prior":    func(s *skipChainSpec) { delete(s.LogPrior, 2) },
		"short mean":       func(s *skipChainSpec) { s.Means[2] = nil },
		"zero variance":    func(s *skipChainSpec) { s.Vars[1] = []float64{0} },
		"non-positive lag": func(s *skipChainSpec) { s.SkipLag = 0 },
		"no classes":       func(s *skipChainSpec) { s.Classes = nil },
	}
	for name, mutate := range cases {
		t.Run(name, func(t *testing.T) {
			spec := skipChainSpec{
				SkipLag:  valid.SkipLag,
				Classes:  append([]int(nil), valid.Classes...),
				Means:    map[int][]float64{1: {0}, 2: {1}},
				Vars:     map[int][]float64{1: {1}, 2: {1}},
				LogPrior: map[int]float64{1: -0.7, 2: -0.7},
				LogTrans: map[int]map[int]float64{1: {1: -1, 2: -1}, 2: {1: -1, 2: -1}},
				LogSkip:  map[int]map[int]float64{1: {1: -1, 2: -1}, 2: {1: -1, 2: -1}},
			}
			mutate(&spec)
			sc := new(SkipChain)
			if err := sc.UnmarshalBinary(encodeSkipChainSpec(t, spec)); !errors.Is(err, ErrBadModelSpec) {
				t.Fatalf("err = %v, want ErrBadModelSpec", err)
			}
			if sc.fitted {
				t.Fatal("rejected spec left the model marked fitted")
			}
		})
	}
}

// TestEnvelopeUnmarshalGarbage pins the envelope decoder's typed-error
// contract on non-gob input.
func TestEnvelopeUnmarshalGarbage(t *testing.T) {
	for _, data := range [][]byte{nil, {0xff, 0x00, 0x13}} {
		if err := new(StaticEnvelope).UnmarshalBinary(data); !errors.Is(err, ErrBadModelSpec) {
			t.Fatalf("err = %v, want ErrBadModelSpec", err)
		}
	}
}

// sortedSkipChainSpec is spec with its tables in the sorted form
// MarshalBinary writes.
func sortedSkipChainSpec(spec skipChainSpec) skipChainSpec {
	return skipChainSpec{
		SkipLag:        spec.SkipLag,
		Classes:        spec.Classes,
		SortedMeans:    sortMap(spec.Means, same[[]float64]),
		SortedVars:     sortMap(spec.Vars, same[[]float64]),
		SortedLogPrior: sortMap(spec.LogPrior, same[float64]),
		SortedLogTrans: sortMap(spec.LogTrans, sortRow),
		SortedLogSkip:  sortMap(spec.LogSkip, sortRow),
	}
}

// TestUnmarshalRejectsBadSortedMaps pins the sorted form's own checks: a
// key without its value, a repeated key, and a table written in both
// forms are refused.
func TestUnmarshalRejectsBadSortedMaps(t *testing.T) {
	legacy := skipChainSpec{
		SkipLag:  5,
		Classes:  []int{1, 2},
		Means:    map[int][]float64{1: {0}, 2: {1}},
		Vars:     map[int][]float64{1: {1}, 2: {1}},
		LogPrior: map[int]float64{1: -0.7, 2: -0.7},
		LogTrans: map[int]map[int]float64{1: {1: -1, 2: -1}, 2: {1: -1, 2: -1}},
		LogSkip:  map[int]map[int]float64{1: {1: -1, 2: -1}, 2: {1: -1, 2: -1}},
	}
	if err := new(SkipChain).UnmarshalBinary(encodeSkipChainSpec(t, sortedSkipChainSpec(legacy))); err != nil {
		t.Fatalf("valid sorted spec rejected: %v", err)
	}
	cases := map[string]func(*skipChainSpec){
		"value missing":     func(s *skipChainSpec) { s.SortedVars.Values = s.SortedVars.Values[:1] },
		"key missing":       func(s *skipChainSpec) { s.SortedLogPrior.Keys = s.SortedLogPrior.Keys[:1] },
		"duplicate key":     func(s *skipChainSpec) { s.SortedMeans.Keys = []int{1, 1} },
		"duplicate row key": func(s *skipChainSpec) { s.SortedLogSkip.Values[1].Keys = []int{2, 2} },
		"both forms":        func(s *skipChainSpec) { s.LogTrans = legacy.LogTrans },
	}
	for name, mutate := range cases {
		t.Run(name, func(t *testing.T) {
			spec := sortedSkipChainSpec(legacy)
			mutate(&spec)
			sc := new(SkipChain)
			if err := sc.UnmarshalBinary(encodeSkipChainSpec(t, spec)); !errors.Is(err, ErrBadModelSpec) {
				t.Fatalf("err = %v, want ErrBadModelSpec", err)
			}
			if sc.fitted {
				t.Fatal("rejected spec left the model marked fitted")
			}
		})
	}

	env := envelopeSpec{
		Features:        featureInts(kinematics.CRG()),
		Global:          envSpec{Lo: make([]float64, kinematics.CRG().Dim()), Hi: make([]float64, kinematics.CRG().Dim()), N: 1},
		SortedByGesture: sortedMap[envSpec]{Keys: []int{3, 3}, Values: make([]envSpec, 2)},
	}
	var buf bytes.Buffer
	if err := gob.NewEncoder(&buf).Encode(env); err != nil {
		t.Fatal(err)
	}
	if err := new(StaticEnvelope).UnmarshalBinary(buf.Bytes()); !errors.Is(err, ErrBadModelSpec) {
		t.Fatalf("envelope with a repeated gesture: err = %v, want ErrBadModelSpec", err)
	}
}

// parentEnvelopeSpec and parentSkipChainSpec are the spec structs of
// artifact format 1, bare maps only. gob matches fields by name, so they
// encode exactly the payloads format 1 artifacts carry.
type parentEnvelopeSpec struct {
	Margin     float64
	PerGesture bool
	Features   []int
	Global     envSpec
	ByGesture  map[int]envSpec
}

type parentSkipChainSpec struct {
	SkipLag    int
	SkipWeight float64
	SelfBias   float64
	Classes    []int
	Means      map[int][]float64
	Vars       map[int][]float64
	LogPrior   map[int]float64
	LogTrans   map[int]map[int]float64
	LogSkip    map[int]map[int]float64
}

// TestParentMapSpecsLoad loads payloads in the map-only form of artifact
// format 1: the loaded skip chain and per-gesture envelope must answer
// every frame == the fitted ones, and save to the same bytes.
func TestParentMapSpecsLoad(t *testing.T) {
	xs, ys := labeledSequences(t, 6, 1)
	sc := NewSkipChain(10)
	if err := sc.Fit(xs, ys); err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := gob.NewEncoder(&buf).Encode(parentSkipChainSpec{
		SkipLag: sc.SkipLag, SkipWeight: sc.SkipWeight, SelfBias: sc.SelfBias,
		Classes: sc.classes, Means: sc.means, Vars: sc.vars,
		LogPrior: sc.logPrior, LogTrans: sc.logTrans, LogSkip: sc.logSkip,
	}); err != nil {
		t.Fatal(err)
	}
	var loadedSC SkipChain
	if err := loadedSC.UnmarshalBinary(buf.Bytes()); err != nil {
		t.Fatalf("parent skipchain payload: %v", err)
	}
	for i, x := range xs {
		want, _ := sc.NewOnlineDecoder()
		got, _ := loadedSC.NewOnlineDecoder()
		for f, row := range x {
			if w, g := want.Push(row), got.Push(row); w != g {
				t.Fatalf("sequence %d frame %d: loaded decoder says %d, fitted %d", i, f, g, w)
			}
		}
	}
	sameBytes(t, "skipchain", sc, &loadedSC)

	trajs := envelopeDemos(t, 4, 6)
	env := NewStaticEnvelope(kinematics.CRG(), true)
	if err := env.Fit(trajs); err != nil {
		t.Fatal(err)
	}
	byGesture := map[int]envSpec{}
	for g, e := range env.byGesture {
		byGesture[g] = e.spec()
	}
	if len(byGesture) < 2 {
		t.Fatalf("fitted %d per-gesture envelopes, want several", len(byGesture))
	}
	buf.Reset()
	if err := gob.NewEncoder(&buf).Encode(parentEnvelopeSpec{
		Margin: env.Margin, PerGesture: env.PerGesture, Features: featureInts(env.features),
		Global: env.global.spec(), ByGesture: byGesture,
	}); err != nil {
		t.Fatal(err)
	}
	var loadedEnv StaticEnvelope
	if err := loadedEnv.UnmarshalBinary(buf.Bytes()); err != nil {
		t.Fatalf("parent envelope payload: %v", err)
	}
	for i, tr := range trajs {
		want, _ := env.ScoreTrajectory(tr)
		got, err := loadedEnv.ScoreTrajectory(tr)
		if err != nil {
			t.Fatal(err)
		}
		if !slices.Equal(got, want) {
			t.Fatalf("trajectory %d: loaded envelope scores differ from the fitted one's", i)
		}
	}
	sameBytes(t, "envelope", env, &loadedEnv)
}

// sameBytes requires two models to save to one byte string.
func sameBytes(t *testing.T, name string, a, b interface{ MarshalBinary() ([]byte, error) }) {
	t.Helper()
	x, err := a.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	y, err := b.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(x, y) {
		t.Fatalf("%s: the model loaded from a parent payload saves to different bytes", name)
	}
}
