package safemon

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"encoding/gob"
	"encoding/hex"
	"errors"
	"fmt"
	"hash/crc32"
	"io"

	"repro/internal/kinematics"
)

// Model artifacts.
//
// A fitted detector serializes to a single self-describing binary artifact:
//
//	offset size  field
//	0      4     magic "SFMA"
//	4      2     artifact format version, big-endian (currently 1)
//	6      2     reserved, zero
//	8      2     backend name length N, big-endian
//	10     N     backend name (registry name, UTF-8)
//	10+N   8     payload length M, big-endian
//	18+N   M     backend-specific payload (gob)
//	18+N+M 4     CRC-32 (IEEE) of all preceding bytes, big-endian
//
// The header names the backend so LoadDetector can reconstruct the right
// detector type without side information, the version gates future format
// changes, and the trailing checksum rejects torn or bit-flipped artifacts
// before any payload decoding happens. Every decode failure is reported as
// a typed *ArtifactError wrapping one of the sentinel errors below; corrupt
// input never panics.

// ArtifactFormatVersion is the artifact format this build writes and the
// only one it accepts. See the format-version policy in safemon/modelstore.
const ArtifactFormatVersion = 1

// artifactMagic brands every detector artifact.
var artifactMagic = [4]byte{'S', 'F', 'M', 'A'}

// maxArtifactBytes caps how much a reader will buffer for one artifact
// (corrupt length fields must not translate into unbounded allocation).
const maxArtifactBytes = 256 << 20

// Artifact decode sentinels, matched with errors.Is through *ArtifactError.
var (
	// ErrBadMagic reports input that is not a detector artifact at all.
	ErrBadMagic = errors.New("safemon: not a detector artifact (bad magic)")
	// ErrBadFormatVersion reports an artifact written by an unsupported
	// format version.
	ErrBadFormatVersion = errors.New("safemon: unsupported artifact format version")
	// ErrTruncated reports an artifact shorter than its own length fields.
	ErrTruncated = errors.New("safemon: truncated artifact")
	// ErrOversized reports an artifact exceeding the size cap.
	ErrOversized = errors.New("safemon: artifact exceeds size cap")
	// ErrChecksum reports a CRC mismatch (torn write or bit flip).
	ErrChecksum = errors.New("safemon: artifact checksum mismatch")
	// ErrBackendMismatch reports loading an artifact into a detector of a
	// different backend.
	ErrBackendMismatch = errors.New("safemon: artifact backend mismatch")
	// ErrCorruptPayload reports a payload that decoded but failed
	// validation.
	ErrCorruptPayload = errors.New("safemon: corrupt artifact payload")
	// ErrAlreadyFitted reports Load on a detector that is already fitted
	// (fit it fresh or load into a new detector; in-place replacement of a
	// live model would corrupt concurrent sessions).
	ErrAlreadyFitted = errors.New("safemon: detector already fitted")
)

// ArtifactError is the typed error every artifact encode/decode failure is
// reported as. Err wraps one of the sentinel errors above (or an underlying
// decoder error), so errors.Is works through it.
type ArtifactError struct {
	// Op is the failing operation ("read", "decode", "validate", ...).
	Op string
	// Backend is the backend name involved, when known.
	Backend string
	// Err is the underlying cause.
	Err error
}

func (e *ArtifactError) Error() string {
	if e.Backend != "" {
		return fmt.Sprintf("safemon: artifact %s (%s): %v", e.Op, e.Backend, e.Err)
	}
	return fmt.Sprintf("safemon: artifact %s: %v", e.Op, e.Err)
}

func (e *ArtifactError) Unwrap() error { return e.Err }

// artifactErr builds a typed artifact error.
func artifactErr(op, backend string, err error) *ArtifactError {
	return &ArtifactError{Op: op, Backend: backend, Err: err}
}

// writeArtifact frames and checksums a backend payload onto w. It enforces
// the same size cap the read path does, so an oversized model fails loudly
// at save (train) time instead of publishing an artifact that every later
// load rejects.
func writeArtifact(w io.Writer, backend string, payload []byte) error {
	if len(backend) == 0 || len(backend) > 0xffff {
		return artifactErr("encode", backend, fmt.Errorf("bad backend name length %d", len(backend)))
	}
	if total := 18 + len(backend) + len(payload) + 4; total > maxArtifactBytes {
		return artifactErr("encode", backend, fmt.Errorf("%w: artifact would be %d bytes (cap %d)", ErrOversized, total, maxArtifactBytes))
	}
	buf := make([]byte, 0, 18+len(backend)+len(payload)+4)
	buf = append(buf, artifactMagic[:]...)
	buf = binary.BigEndian.AppendUint16(buf, ArtifactFormatVersion)
	buf = binary.BigEndian.AppendUint16(buf, 0) // reserved
	buf = binary.BigEndian.AppendUint16(buf, uint16(len(backend)))
	buf = append(buf, backend...)
	buf = binary.BigEndian.AppendUint64(buf, uint64(len(payload)))
	buf = append(buf, payload...)
	buf = binary.BigEndian.AppendUint32(buf, crc32.ChecksumIEEE(buf))
	if _, err := w.Write(buf); err != nil {
		return artifactErr("write", backend, err)
	}
	return nil
}

// readArtifactBytes drains r up to the size cap.
func readArtifactBytes(r io.Reader) ([]byte, error) {
	data, err := io.ReadAll(io.LimitReader(r, maxArtifactBytes+1))
	if err != nil {
		return nil, artifactErr("read", "", err)
	}
	if len(data) > maxArtifactBytes {
		return nil, artifactErr("read", "", fmt.Errorf("%w (cap %d bytes)", ErrOversized, maxArtifactBytes))
	}
	return data, nil
}

// parseArtifact validates framing and checksum and returns the backend name
// and payload of an in-memory artifact.
func parseArtifact(data []byte) (backend string, payload []byte, err error) {
	if len(data) < 4 || !bytes.Equal(data[:4], artifactMagic[:]) {
		return "", nil, artifactErr("parse", "", ErrBadMagic)
	}
	if len(data) < 14 {
		return "", nil, artifactErr("parse", "", ErrTruncated)
	}
	if v := binary.BigEndian.Uint16(data[4:6]); v != ArtifactFormatVersion {
		return "", nil, artifactErr("parse", "", fmt.Errorf("%w: got v%d, support v%d", ErrBadFormatVersion, v, ArtifactFormatVersion))
	}
	nameLen := int(binary.BigEndian.Uint16(data[8:10]))
	if nameLen == 0 {
		return "", nil, artifactErr("parse", "", fmt.Errorf("%w: empty backend name", ErrCorruptPayload))
	}
	if len(data) < 10+nameLen+8 {
		return "", nil, artifactErr("parse", "", ErrTruncated)
	}
	backend = string(data[10 : 10+nameLen])
	payloadLen := binary.BigEndian.Uint64(data[10+nameLen : 18+nameLen])
	body := 18 + nameLen
	if payloadLen > uint64(maxArtifactBytes) {
		return "", nil, artifactErr("parse", backend, fmt.Errorf("%w: payload claims %d bytes", ErrOversized, payloadLen))
	}
	if uint64(len(data)) < uint64(body)+payloadLen+4 {
		return "", nil, artifactErr("parse", backend, ErrTruncated)
	}
	if uint64(len(data)) > uint64(body)+payloadLen+4 {
		return "", nil, artifactErr("parse", backend, fmt.Errorf("%w: %d trailing bytes", ErrCorruptPayload, uint64(len(data))-uint64(body)-payloadLen-4))
	}
	crcAt := len(data) - 4
	if got, want := crc32.ChecksumIEEE(data[:crcAt]), binary.BigEndian.Uint32(data[crcAt:]); got != want {
		return "", nil, artifactErr("parse", backend, fmt.Errorf("%w: crc32 %08x, header says %08x", ErrChecksum, got, want))
	}
	return backend, data[body : body+int(payloadLen)], nil
}

// readArtifact reads and parses one artifact from r.
func readArtifact(r io.Reader) (backend string, payload []byte, err error) {
	data, err := readArtifactBytes(r)
	if err != nil {
		return "", nil, err
	}
	return parseArtifact(data)
}

// encodeGob serializes one backend payload.
func encodeGob(backend string, v any) ([]byte, error) {
	var buf bytes.Buffer
	if err := gob.NewEncoder(&buf).Encode(v); err != nil {
		return nil, artifactErr("encode", backend, err)
	}
	return buf.Bytes(), nil
}

// decodeGob deserializes one backend payload with typed errors.
func decodeGob(backend string, data []byte, v any) error {
	if err := gob.NewDecoder(bytes.NewReader(data)).Decode(v); err != nil {
		return artifactErr("decode", backend, fmt.Errorf("%w: %v", ErrCorruptPayload, err))
	}
	return nil
}

// guardLoad runs a detector's load body, converting any failure — including
// a panic from a decoder edge case validation missed — into a typed
// *ArtifactError, so corrupt artifacts can never crash a loading process.
func guardLoad(backend string, fn func() error) (err error) {
	defer func() {
		if p := recover(); p != nil {
			err = artifactErr("decode", backend, fmt.Errorf("%w: panic: %v", ErrCorruptPayload, p))
		}
	}()
	if err := fn(); err != nil {
		var ae *ArtifactError
		if errors.As(err, &ae) {
			return err
		}
		return artifactErr("decode", backend, err)
	}
	return nil
}

// decodePayload gob-decodes a backend payload into p and restores the
// configuration it embeds (pc points at p's Config field) over base.
func decodePayload(name string, data []byte, base Config, p any, pc *persistedConfig) (Config, error) {
	if err := decodeGob(name, data, p); err != nil {
		return Config{}, err
	}
	cfg, err := pc.restore(base)
	if err != nil {
		return Config{}, artifactErr("validate", name, err)
	}
	return cfg, nil
}

// corruptErr reports a payload that decoded but failed op ("decode" or
// "validate") for the given reason.
func corruptErr(op, name string, reason error) error {
	return artifactErr(op, name, fmt.Errorf("%w: %v", ErrCorruptPayload, reason))
}

// checkBackendName verifies the artifact header names this detector's
// backend.
func checkBackendName(got, want string) error {
	if got != want {
		return artifactErr("open", want, fmt.Errorf("%w: artifact is for %q", ErrBackendMismatch, got))
	}
	return nil
}

// notReadyErr maps an unfitted detector's state onto the right session
// error: the recorded load failure when an artifact load went wrong (so the
// caller learns *why* the detector cannot serve, wrapping *ArtifactError),
// plain ErrNotFitted otherwise.
func notReadyErr(name string, loadErr error) error {
	if loadErr != nil {
		return fmt.Errorf("safemon: %s detector unusable after failed load: %w", name, loadErr)
	}
	return ErrNotFitted
}

// persistedConfig mirrors Config without its runtime-only fields (Verbose,
// Timing) and func-typed members, in a gob-stable form.
type persistedConfig struct {
	Threshold          float64
	GroundTruthContext bool
	Lookahead          bool
	GestureFeatures    []int
	ErrorFeatures      []int
	Window             int
	Arch               int
	Epochs             int
	TrainStride        int
	Seed               int64
	EnvelopeMargin     float64
	Atoms              int
	SkipLag            int
	CascadeFront       string
	CascadeInner       string
	CascadeArm         float64
	CascadeHoldoff     int
	// Quantized is read, never written: it marks an artifact saved with
	// int8-quantized error heads, which must fail to load with
	// errQuantizedArtifact. Without the field gob would drop it, and the
	// model would silently serve float scores.
	Quantized bool
}

func persistConfig(c Config) persistedConfig {
	return persistedConfig{
		Threshold:          c.Threshold,
		GroundTruthContext: c.GroundTruthContext,
		Lookahead:          c.Lookahead,
		GestureFeatures:    featureInts(c.GestureFeatures),
		ErrorFeatures:      featureInts(c.ErrorFeatures),
		Window:             c.Window,
		Arch:               int(c.Arch),
		Epochs:             c.Epochs,
		TrainStride:        c.TrainStride,
		Seed:               c.Seed,
		EnvelopeMargin:     c.EnvelopeMargin,
		Atoms:              c.Atoms,
		SkipLag:            c.SkipLag,
		CascadeFront:       c.CascadeFront,
		CascadeInner:       c.CascadeInner,
		CascadeArm:         c.CascadeArm,
		CascadeHoldoff:     c.CascadeHoldoff,
	}
}

// errQuantizedArtifact refuses artifacts whose error heads were saved
// int8-quantized: this build serves float weights only, and replaying such
// a model in float would change its recorded verdicts.
var errQuantizedArtifact = errors.New("safemon: artifact has int8-quantized error heads, which this build does not serve")

// restore rebuilds a Config, keeping base's runtime-only fields (Timing,
// Verbose) that artifacts deliberately do not carry.
func (p persistedConfig) restore(base Config) (Config, error) {
	if p.Quantized {
		return Config{}, errQuantizedArtifact
	}
	gf, err := restoreFeatureSet(p.GestureFeatures)
	if err != nil {
		return Config{}, err
	}
	ef, err := restoreFeatureSet(p.ErrorFeatures)
	if err != nil {
		return Config{}, err
	}
	cfg := base
	cfg.Threshold = p.Threshold
	cfg.GroundTruthContext = p.GroundTruthContext
	cfg.Lookahead = p.Lookahead
	cfg.GestureFeatures = gf
	cfg.ErrorFeatures = ef
	cfg.Window = p.Window
	cfg.Arch = ErrorArch(p.Arch)
	cfg.Epochs = p.Epochs
	cfg.TrainStride = p.TrainStride
	cfg.Seed = p.Seed
	cfg.EnvelopeMargin = p.EnvelopeMargin
	cfg.Atoms = p.Atoms
	cfg.SkipLag = p.SkipLag
	cfg.CascadeFront = p.CascadeFront
	cfg.CascadeInner = p.CascadeInner
	cfg.CascadeArm = p.CascadeArm
	cfg.CascadeHoldoff = p.CascadeHoldoff
	return cfg, nil
}

func featureInts(fs FeatureSet) []int {
	if fs == nil {
		return nil
	}
	out := make([]int, len(fs))
	for i, g := range fs {
		out[i] = int(g)
	}
	return out
}

func restoreFeatureSet(ints []int) (FeatureSet, error) {
	if len(ints) == 0 {
		return nil, nil // nil = "backend default", legitimately absent
	}
	fs, err := kinematics.ParseFeatureSet(ints)
	if err != nil {
		return nil, fmt.Errorf("%w: %v", ErrCorruptPayload, err)
	}
	return fs, nil
}

// ConfigHash returns a stable hex fingerprint of a detector's training
// configuration (threshold, feature subsets, window, architecture, seed,
// ...). Two detectors trained with the same configuration on the same data
// produce the same hash; model stores record it in artifact manifests so a
// served model can be traced back to its training setup.
func ConfigHash(d Detector) (string, error) {
	sd, ok := d.(*detector)
	if !ok {
		return "", fmt.Errorf("safemon: %s detector does not expose its configuration", d.Info().Name)
	}
	data, err := encodeGob(sd.name, persistConfig(sd.cfg))
	if err != nil {
		return "", err
	}
	sum := sha256.Sum256(data)
	return hex.EncodeToString(sum[:12]), nil
}

// LoadDetector reconstructs a ready-to-serve detector from an artifact
// written by Detector.Save: the artifact header selects the backend through
// the registry, and that detector's Load restores the full fitted state
// from the payload — no Fit call, no training data. The loaded detector honors the exact
// configuration it was trained with and satisfies the same zero-allocation
// session invariants as a freshly fitted one.
func LoadDetector(r io.Reader) (Detector, error) {
	data, err := readArtifactBytes(r)
	if err != nil {
		return nil, err
	}
	backend, _, err := parseArtifact(data)
	if err != nil {
		return nil, err
	}
	det, err := Open(backend)
	if err != nil {
		return nil, artifactErr("open", backend, err)
	}
	if err := det.Load(bytes.NewReader(data)); err != nil {
		return nil, err
	}
	return det, nil
}
