// Binary persistence for the baseline models. Each fitted model round-trips
// through encoding.BinaryMarshaler / BinaryUnmarshaler: the marshaled form
// is a gob spec struct mirroring the model's full fitted state, and
// unmarshaling validates every shape before installing it, so corrupt input
// yields an error wrapping ErrBadModelSpec instead of a panic or a silently
// inconsistent model.

package baseline

import (
	"bytes"
	"encoding/gob"
	"errors"
	"fmt"
	"slices"

	"repro/internal/kinematics"
)

// ErrBadModelSpec is wrapped by every unmarshal failure caused by corrupt or
// inconsistent serialized model state.
var ErrBadModelSpec = errors.New("baseline: bad model spec")

// sortedMap is a map[int]V written as parallel slices in ascending key
// order. gob writes a Go map in iteration order, which changes from run
// to run, so a model holding maps would save to different bytes each
// time; every spec below writes its maps in this form instead.
type sortedMap[V any] struct {
	Keys   []int
	Values []V
}

// sortMap returns m in key order, each value converted by conv.
func sortMap[M ~map[int]E, E, V any](m M, conv func(E) V) sortedMap[V] {
	out := sortedMap[V]{Keys: make([]int, 0, len(m)), Values: make([]V, 0, len(m))}
	for k := range m {
		out.Keys = append(out.Keys, k)
	}
	slices.Sort(out.Keys)
	for _, k := range out.Keys {
		out.Values = append(out.Values, conv(m[k]))
	}
	return out
}

// same is the identity conversion for sortMap.
func same[V any](v V) V { return v }

// keep is the identity conversion for restoreMap.
func keep[V any](v V) (V, error) { return v, nil }

// restoreMap rebuilds the map, converting each value by conv. A payload
// from a build that wrote the bare map (legacy) carries no sorted form,
// and the legacy map is used as it is; a payload carrying both is
// refused, as are mismatched key and value counts and duplicate keys.
func restoreMap[V, E any](s sortedMap[V], legacy map[int]E, name string, conv func(V) (E, error)) (map[int]E, error) {
	if len(s.Keys) == 0 && len(s.Values) == 0 {
		return legacy, nil
	}
	if legacy != nil {
		return nil, fmt.Errorf("%w: %s in both map and sorted form", ErrBadModelSpec, name)
	}
	if len(s.Keys) != len(s.Values) {
		return nil, fmt.Errorf("%w: %s has %d keys and %d values", ErrBadModelSpec, name, len(s.Keys), len(s.Values))
	}
	m := make(map[int]E, len(s.Keys))
	for i, k := range s.Keys {
		if _, dup := m[k]; dup {
			return nil, fmt.Errorf("%w: %s repeats key %d", ErrBadModelSpec, name, k)
		}
		v, err := conv(s.Values[i])
		if err != nil {
			return nil, err
		}
		m[k] = v
	}
	return m, nil
}

// ---- StaticEnvelope ----

// envSpec serializes one per-feature bounds table.
type envSpec struct {
	Lo, Hi []float64
	N      int
}

func (e *envelope) spec() envSpec { return envSpec{Lo: e.lo, Hi: e.hi, N: e.n} }

func (s envSpec) restore(dim int) (*envelope, error) {
	if len(s.Lo) != dim || len(s.Hi) != dim {
		return nil, fmt.Errorf("%w: envelope bounds have %d/%d values, want %d", ErrBadModelSpec, len(s.Lo), len(s.Hi), dim)
	}
	if s.N < 0 {
		return nil, fmt.Errorf("%w: envelope has negative frame count %d", ErrBadModelSpec, s.N)
	}
	return &envelope{lo: s.Lo, hi: s.Hi, n: s.N}, nil
}

// envelopeSpec serializes a fitted StaticEnvelope. MarshalBinary writes
// the per-gesture envelopes as SortedByGesture (artifact format 2);
// ByGesture is the map form of format 1 artifacts, still read on load.
type envelopeSpec struct {
	Margin          float64
	PerGesture      bool
	Features        []int
	Global          envSpec
	ByGesture       map[int]envSpec
	SortedByGesture sortedMap[envSpec]
}

// MarshalBinary serializes the fitted envelope's full state.
func (s *StaticEnvelope) MarshalBinary() ([]byte, error) {
	if !s.fitted {
		return nil, ErrNotFitted
	}
	spec := envelopeSpec{
		Margin:          s.Margin,
		PerGesture:      s.PerGesture,
		Features:        featureInts(s.features),
		Global:          s.global.spec(),
		SortedByGesture: sortMap(s.byGesture, (*envelope).spec),
	}
	var buf bytes.Buffer
	if err := gob.NewEncoder(&buf).Encode(spec); err != nil {
		return nil, err
	}
	return buf.Bytes(), nil
}

// UnmarshalBinary restores a fitted envelope from MarshalBinary's output,
// validating every bound table against the feature set's dimensionality.
func (s *StaticEnvelope) UnmarshalBinary(data []byte) error {
	var spec envelopeSpec
	if err := gob.NewDecoder(bytes.NewReader(data)).Decode(&spec); err != nil {
		return fmt.Errorf("%w: decode envelope: %v", ErrBadModelSpec, err)
	}
	features, err := featureSet(spec.Features)
	if err != nil {
		return err
	}
	dim := features.Dim()
	global, err := spec.Global.restore(dim)
	if err != nil {
		return err
	}
	if global.n == 0 {
		return fmt.Errorf("%w: envelope has no observed frames", ErrBadModelSpec)
	}
	specs, err := restoreMap(spec.SortedByGesture, spec.ByGesture, "envelope gestures", keep[envSpec])
	if err != nil {
		return err
	}
	byGesture := make(map[int]*envelope, len(specs))
	for g, es := range specs {
		e, err := es.restore(dim)
		if err != nil {
			return fmt.Errorf("gesture %d: %w", g, err)
		}
		byGesture[g] = e
	}
	s.Margin = spec.Margin
	s.PerGesture = spec.PerGesture
	s.features = features
	s.global = global
	s.byGesture = byGesture
	s.fitted = true
	return nil
}

// ---- SkipChain ----

// skipChainSpec serializes a fitted SkipChain. MarshalBinary writes each
// per-class table in its Sorted field (artifact format 2); the bare maps
// are the form of format 1 artifacts, still read on load.
type skipChainSpec struct {
	SkipLag        int
	SkipWeight     float64
	SelfBias       float64
	Classes        []int
	Means          map[int][]float64
	Vars           map[int][]float64
	LogPrior       map[int]float64
	LogTrans       map[int]map[int]float64
	LogSkip        map[int]map[int]float64
	SortedMeans    sortedMap[[]float64]
	SortedVars     sortedMap[[]float64]
	SortedLogPrior sortedMap[float64]
	SortedLogTrans sortedMap[sortedMap[float64]]
	SortedLogSkip  sortedMap[sortedMap[float64]]
}

// sortRow is sortMap for one transition-table row.
func sortRow(row map[int]float64) sortedMap[float64] { return sortMap(row, same[float64]) }

// restoreRows is restoreMap for a transition table.
func restoreRows(s sortedMap[sortedMap[float64]], legacy map[int]map[int]float64, name string) (map[int]map[int]float64, error) {
	return restoreMap(s, legacy, name, func(row sortedMap[float64]) (map[int]float64, error) {
		return restoreMap(row, nil, name+" row", keep[float64])
	})
}

// MarshalBinary serializes the fitted decoder's full state.
func (sc *SkipChain) MarshalBinary() ([]byte, error) {
	if !sc.fitted {
		return nil, ErrNotFitted
	}
	spec := skipChainSpec{
		SkipLag:        sc.SkipLag,
		SkipWeight:     sc.SkipWeight,
		SelfBias:       sc.SelfBias,
		Classes:        sc.classes,
		SortedMeans:    sortMap(sc.means, same[[]float64]),
		SortedVars:     sortMap(sc.vars, same[[]float64]),
		SortedLogPrior: sortMap(sc.logPrior, same[float64]),
		SortedLogTrans: sortMap(sc.logTrans, sortRow),
		SortedLogSkip:  sortMap(sc.logSkip, sortRow),
	}
	var buf bytes.Buffer
	if err := gob.NewEncoder(&buf).Encode(spec); err != nil {
		return nil, err
	}
	return buf.Bytes(), nil
}

// UnmarshalBinary restores a fitted decoder from MarshalBinary's output.
// Emission tables are validated for per-class consistency so decoding can
// never index past a corrupt mean or variance vector.
func (sc *SkipChain) UnmarshalBinary(data []byte) error {
	var spec skipChainSpec
	if err := gob.NewDecoder(bytes.NewReader(data)).Decode(&spec); err != nil {
		return fmt.Errorf("%w: decode skipchain: %v", ErrBadModelSpec, err)
	}
	var err error
	if spec.Means, err = restoreMap(spec.SortedMeans, spec.Means, "skipchain means", keep[[]float64]); err != nil {
		return err
	}
	if spec.Vars, err = restoreMap(spec.SortedVars, spec.Vars, "skipchain variances", keep[[]float64]); err != nil {
		return err
	}
	if spec.LogPrior, err = restoreMap(spec.SortedLogPrior, spec.LogPrior, "skipchain priors", keep[float64]); err != nil {
		return err
	}
	if spec.LogTrans, err = restoreRows(spec.SortedLogTrans, spec.LogTrans, "skipchain transition table"); err != nil {
		return err
	}
	if spec.LogSkip, err = restoreRows(spec.SortedLogSkip, spec.LogSkip, "skipchain skip table"); err != nil {
		return err
	}
	if spec.SkipLag <= 0 {
		return fmt.Errorf("%w: skipchain lag %d", ErrBadModelSpec, spec.SkipLag)
	}
	if len(spec.Classes) == 0 {
		return fmt.Errorf("%w: skipchain has no classes", ErrBadModelSpec)
	}
	dim := -1
	for _, c := range spec.Classes {
		mu, va := spec.Means[c], spec.Vars[c]
		if dim == -1 {
			dim = len(mu)
		}
		if len(mu) == 0 || len(mu) != dim || len(va) != dim {
			return fmt.Errorf("%w: skipchain class %d has %d/%d emission params, want %d", ErrBadModelSpec, c, len(mu), len(va), dim)
		}
		for _, v := range va {
			if v <= 0 {
				return fmt.Errorf("%w: skipchain class %d has non-positive variance", ErrBadModelSpec, c)
			}
		}
		if _, ok := spec.LogPrior[c]; !ok {
			return fmt.Errorf("%w: skipchain class %d missing prior", ErrBadModelSpec, c)
		}
	}
	// Transition tables must be complete: a missing row or cell would read
	// as log-probability 0 (= certainty) and silently skew every decode.
	for _, name := range []string{"transition", "skip"} {
		table := spec.LogTrans
		if name == "skip" {
			table = spec.LogSkip
		}
		for _, a := range spec.Classes {
			row, ok := table[a]
			if !ok {
				return fmt.Errorf("%w: skipchain %s table missing row for class %d", ErrBadModelSpec, name, a)
			}
			for _, b := range spec.Classes {
				if _, ok := row[b]; !ok {
					return fmt.Errorf("%w: skipchain %s table missing %d->%d", ErrBadModelSpec, name, a, b)
				}
			}
		}
	}
	sc.SkipLag = spec.SkipLag
	sc.SkipWeight = spec.SkipWeight
	sc.SelfBias = spec.SelfBias
	sc.classes = spec.Classes
	sc.means = spec.Means
	sc.vars = spec.Vars
	sc.logPrior = spec.LogPrior
	sc.logTrans = spec.LogTrans
	sc.logSkip = spec.LogSkip
	sc.fitted = true
	return nil
}

// Dim returns the emission dimensionality the chain was fitted on (0 when
// unfitted).
func (sc *SkipChain) Dim() int {
	for _, c := range sc.classes {
		return len(sc.means[c])
	}
	return 0
}

// ---- SDSDL ----

// sdsdlSpec serializes a fitted SDSDL classifier.
type sdsdlSpec struct {
	Atoms    int
	Sparsity int
	Epochs   int
	LR       float64
	Lambda   float64
	Dict     [][]float64
	Classes  []int
	Weights  [][]float64
}

// MarshalBinary serializes the fitted classifier's full state.
func (s *SDSDL) MarshalBinary() ([]byte, error) {
	if !s.fitted {
		return nil, ErrNotFitted
	}
	spec := sdsdlSpec{
		Atoms:    s.Atoms,
		Sparsity: s.Sparsity,
		Epochs:   s.Epochs,
		LR:       s.LR,
		Lambda:   s.Lambda,
		Dict:     s.dict,
		Classes:  s.classes,
		Weights:  s.weights,
	}
	var buf bytes.Buffer
	if err := gob.NewEncoder(&buf).Encode(spec); err != nil {
		return nil, err
	}
	return buf.Bytes(), nil
}

// UnmarshalBinary restores a fitted classifier from MarshalBinary's output,
// validating dictionary and hyperplane shapes (classify indexes w[Atoms], so
// a short hyperplane would panic at serve time if admitted here).
func (s *SDSDL) UnmarshalBinary(data []byte) error {
	var spec sdsdlSpec
	if err := gob.NewDecoder(bytes.NewReader(data)).Decode(&spec); err != nil {
		return fmt.Errorf("%w: decode sdsdl: %v", ErrBadModelSpec, err)
	}
	if spec.Atoms <= 0 || spec.Sparsity <= 0 {
		return fmt.Errorf("%w: sdsdl atoms %d / sparsity %d", ErrBadModelSpec, spec.Atoms, spec.Sparsity)
	}
	if len(spec.Dict) == 0 || len(spec.Dict) > spec.Atoms {
		return fmt.Errorf("%w: sdsdl dictionary has %d atoms, want 1..%d", ErrBadModelSpec, len(spec.Dict), spec.Atoms)
	}
	dim := len(spec.Dict[0])
	if dim == 0 {
		return fmt.Errorf("%w: sdsdl has zero-dimensional atoms", ErrBadModelSpec)
	}
	for i, atom := range spec.Dict {
		if len(atom) != dim {
			return fmt.Errorf("%w: sdsdl atom %d has %d values, want %d", ErrBadModelSpec, i, len(atom), dim)
		}
	}
	if len(spec.Classes) == 0 || len(spec.Weights) != len(spec.Classes) {
		return fmt.Errorf("%w: sdsdl has %d classes and %d hyperplanes", ErrBadModelSpec, len(spec.Classes), len(spec.Weights))
	}
	for i, w := range spec.Weights {
		if len(w) != spec.Atoms+1 {
			return fmt.Errorf("%w: sdsdl hyperplane %d has %d values, want %d", ErrBadModelSpec, i, len(w), spec.Atoms+1)
		}
	}
	s.Atoms = spec.Atoms
	s.Sparsity = spec.Sparsity
	s.Epochs = spec.Epochs
	s.LR = spec.LR
	s.Lambda = spec.Lambda
	s.dict = spec.Dict
	s.classes = spec.Classes
	s.weights = spec.Weights
	s.fitted = true
	return nil
}

// Dim returns the frame dimensionality the classifier was fitted on (0 when
// unfitted).
func (s *SDSDL) Dim() int {
	if len(s.dict) == 0 {
		return 0
	}
	return len(s.dict[0])
}

// ---- shared feature-set helpers ----

// featureInts flattens a feature set to serializable ints.
func featureInts(fs kinematics.FeatureSet) []int {
	out := make([]int, len(fs))
	for i, g := range fs {
		out[i] = int(g)
	}
	return out
}

// featureSet validates and restores a feature set from serialized ints.
func featureSet(ints []int) (kinematics.FeatureSet, error) {
	fs, err := kinematics.ParseFeatureSet(ints)
	if err != nil {
		return nil, fmt.Errorf("%w: %v", ErrBadModelSpec, err)
	}
	return fs, nil
}
