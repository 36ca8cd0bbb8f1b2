// Package modelstore is the on-disk versioned store for safemon detector
// artifacts: the bridge between offline training (safemond -train-only)
// and artifact-serving daemons (safemond -model-dir), with immutable
// versions so deployments are reproducible and rollbacks are a directory
// rename away.
//
// # Layout
//
//	<dir>/<backend>/<version>/artifact.bin   the Detector.Save artifact
//	<dir>/<backend>/<version>/manifest.json  version metadata (Manifest)
//
// Versions are immutable: Save writes artifact and manifest into a staging
// directory and atomically renames it into place, and refuses to overwrite
// an existing version. Readers therefore never observe a torn version, and
// a version directory either fully exists or does not exist at all.
//
// # Artifact format-version policy
//
// Every artifact embeds safemon.ArtifactFormatVersion (currently 2) in its
// header and every manifest records it as "format_version". The format is
// strict-versioned: a build writes only its own format version and loads
// only artifacts whose version lies between
// safemon.OldestArtifactFormatVersion and its own, so an artifact from a
// newer build fails loudly with ErrBadFormatVersion. Bumping the version
// is reserved for changes an older build would misread: incompatible
// layout changes (field reordering, new compression, changed checksums)
// and payload fields that replace ones older builds read — version 2
// writes model maps as key-sorted slices where version 1 wrote gob maps,
// which a version 1 build would read as empty. Backward-compatible
// additions must instead extend the backend payloads, which are
// self-describing gob and tolerate unknown fields on decode. A bump keeps
// the old version readable only when its payloads still decode to the
// same model (version 2 reads version 1); otherwise the old artifacts
// fail loudly with ErrBadFormatVersion — the remedy is retraining (make
// train), never silent reinterpretation. The store keeps old versions on
// disk untouched, so operators can pin a daemon of the matching build to
// an old artifact during a migration.
package modelstore

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"io/fs"
	"os"
	"path/filepath"
	"regexp"
	"sort"
	"time"

	"repro/safemon"
)

// Store errors.
var (
	// ErrNotFound reports a backend or version absent from the store.
	ErrNotFound = errors.New("modelstore: not found")
	// ErrVersionExists reports a Save targeting an existing version
	// (versions are immutable).
	ErrVersionExists = errors.New("modelstore: version already exists")
	// ErrBadManifest reports a manifest that is unreadable, invalid, or
	// disagrees with its artifact.
	ErrBadManifest = errors.New("modelstore: bad manifest")
	// ErrBadName reports a backend or version name unusable as a
	// directory name.
	ErrBadName = errors.New("modelstore: bad backend or version name")
)

// Manifest is the JSON metadata stored next to every artifact.
type Manifest struct {
	// Backend is the detector's registry name.
	Backend string `json:"backend"`
	// Version is the immutable store version this artifact lives under.
	Version string `json:"version"`
	// FormatVersion is the artifact format the file was written with
	// (see the package's format-version policy).
	FormatVersion int `json:"format_version"`
	// TrainConfigHash fingerprints the training configuration
	// (safemon.ConfigHash), tracing a served model back to its setup.
	TrainConfigHash string `json:"train_config_hash,omitempty"`
	// CreatedAt is the artifact's creation time (UTC).
	CreatedAt time.Time `json:"created_at"`
	// SizeBytes is the artifact file's size.
	SizeBytes int64 `json:"size_bytes"`
	// CRC32 is the IEEE checksum of the whole artifact file, cross-
	// checking that manifest and artifact belong together.
	CRC32 uint32 `json:"crc32"`
}

// artifactFile and manifestFile are the fixed names inside a version dir.
const (
	artifactFile = "artifact.bin"
	manifestFile = "manifest.json"
)

// maxManifestBytes caps manifest reads (a manifest is a few hundred bytes;
// anything larger is corrupt).
const maxManifestBytes = 1 << 20

// validName constrains backend and version directory names.
var validName = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9._-]*$`)

// ParseManifest decodes and validates manifest JSON. Invalid input yields
// an error wrapping ErrBadManifest; it never panics.
func ParseManifest(data []byte) (*Manifest, error) {
	if len(data) > maxManifestBytes {
		return nil, fmt.Errorf("%w: %d bytes exceeds cap", ErrBadManifest, len(data))
	}
	var m Manifest
	if err := json.Unmarshal(data, &m); err != nil {
		return nil, fmt.Errorf("%w: %v", ErrBadManifest, err)
	}
	if !validName.MatchString(m.Backend) {
		return nil, fmt.Errorf("%w: bad backend name %q", ErrBadManifest, m.Backend)
	}
	if !validName.MatchString(m.Version) {
		return nil, fmt.Errorf("%w: bad version %q", ErrBadManifest, m.Version)
	}
	if m.FormatVersion < safemon.OldestArtifactFormatVersion || m.FormatVersion > safemon.ArtifactFormatVersion {
		return nil, fmt.Errorf("%w: format version %d, support %d-%d", ErrBadManifest, m.FormatVersion, safemon.OldestArtifactFormatVersion, safemon.ArtifactFormatVersion)
	}
	if m.SizeBytes <= 0 {
		return nil, fmt.Errorf("%w: non-positive artifact size %d", ErrBadManifest, m.SizeBytes)
	}
	return &m, nil
}

// Store is a directory of versioned detector artifacts. All methods are
// safe for concurrent use by multiple processes to the extent the
// filesystem's rename atomicity reaches.
type Store struct {
	dir string
}

// Open opens (creating if needed) a store rooted at dir.
func Open(dir string) (*Store, error) {
	if dir == "" {
		return nil, errors.New("modelstore: empty store directory")
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("modelstore: open %s: %w", dir, err)
	}
	return &Store{dir: dir}, nil
}

// Dir returns the store's root directory.
func (s *Store) Dir() string { return s.dir }

// Save serializes a fitted detector as a new immutable version and returns
// its manifest. version "" auto-assigns the next sequential "vNNNN". The
// write is atomic: artifact and manifest land in a staging directory that
// is renamed into place, so readers never see a partial version.
func (s *Store) Save(det safemon.Detector, version string) (*Manifest, error) {
	backend := det.Info().Name
	if !validName.MatchString(backend) {
		return nil, fmt.Errorf("%w: backend %q", ErrBadName, backend)
	}
	backendDir := filepath.Join(s.dir, backend)
	if err := os.MkdirAll(backendDir, 0o755); err != nil {
		return nil, fmt.Errorf("modelstore: %w", err)
	}
	if version == "" {
		var err error
		if version, err = s.nextVersion(backend); err != nil {
			return nil, err
		}
	} else if !validName.MatchString(version) || version == "latest" {
		// "latest" is Load's alias for the newest version; a version
		// actually named that could never be pinned explicitly.
		return nil, fmt.Errorf("%w: version %q", ErrBadName, version)
	}
	finalDir := filepath.Join(backendDir, version)
	if _, err := os.Stat(finalDir); err == nil {
		return nil, fmt.Errorf("%w: %s/%s", ErrVersionExists, backend, version)
	} else if !errors.Is(err, fs.ErrNotExist) {
		return nil, fmt.Errorf("modelstore: %w", err)
	}

	staging, err := os.MkdirTemp(backendDir, ".staging-"+version+"-")
	if err != nil {
		return nil, fmt.Errorf("modelstore: %w", err)
	}
	defer os.RemoveAll(staging) // no-op after a successful rename

	// Stream the artifact through a CRC/size tee so the manifest fields
	// need no second read of the file.
	f, err := os.Create(filepath.Join(staging, artifactFile))
	if err != nil {
		return nil, fmt.Errorf("modelstore: %w", err)
	}
	hash := crc32.NewIEEE()
	var size countingWriter
	if err := det.Save(io.MultiWriter(f, hash, &size)); err != nil {
		f.Close()
		return nil, fmt.Errorf("modelstore: save %s: %w", backend, err)
	}
	if err := closeSynced(f); err != nil {
		return nil, err
	}

	m := &Manifest{
		Backend:       backend,
		Version:       version,
		FormatVersion: safemon.ArtifactFormatVersion,
		CreatedAt:     time.Now().UTC().Truncate(time.Second),
		SizeBytes:     int64(size),
		CRC32:         hash.Sum32(),
	}
	if hash, err := safemon.ConfigHash(det); err == nil {
		m.TrainConfigHash = hash
	}
	mdata, err := json.MarshalIndent(m, "", "  ")
	if err != nil {
		return nil, fmt.Errorf("modelstore: %w", err)
	}
	mf, err := os.Create(filepath.Join(staging, manifestFile))
	if err != nil {
		return nil, fmt.Errorf("modelstore: %w", err)
	}
	if _, err := mf.Write(append(mdata, '\n')); err != nil {
		mf.Close()
		return nil, fmt.Errorf("modelstore: %w", err)
	}
	if err := closeSynced(mf); err != nil {
		return nil, err
	}
	// Durable publish: both files are synced above; sync the staging dir so
	// their entries are on disk, rename, then sync the backend dir so the
	// rename itself survives a crash — a version either fully exists with
	// flushed content or not at all (the "never a torn version" contract).
	if err := syncDir(staging); err != nil {
		return nil, err
	}
	if err := os.Rename(staging, finalDir); err != nil {
		return nil, fmt.Errorf("modelstore: publish %s/%s: %w", backend, version, err)
	}
	if err := syncDir(backendDir); err != nil {
		return nil, err
	}
	return m, nil
}

// countingWriter tallies bytes written through it.
type countingWriter int64

func (c *countingWriter) Write(p []byte) (int, error) {
	*c += countingWriter(len(p))
	return len(p), nil
}

// closeSynced flushes a file to stable storage before closing it.
func closeSynced(f *os.File) error {
	if err := f.Sync(); err != nil {
		f.Close()
		return fmt.Errorf("modelstore: sync %s: %w", f.Name(), err)
	}
	if err := f.Close(); err != nil {
		return fmt.Errorf("modelstore: %w", err)
	}
	return nil
}

// syncDir flushes a directory's entries to stable storage.
func syncDir(path string) error {
	d, err := os.Open(path)
	if err != nil {
		return fmt.Errorf("modelstore: %w", err)
	}
	defer d.Close()
	if err := d.Sync(); err != nil {
		return fmt.Errorf("modelstore: sync %s: %w", path, err)
	}
	return nil
}

// nextVersion picks the next free sequential "vNNNN" for a backend. It
// scans directory names rather than manifests so a version whose manifest
// is corrupt still advances the counter instead of colliding.
func (s *Store) nextVersion(backend string) (string, error) {
	entries, err := os.ReadDir(filepath.Join(s.dir, backend))
	if err != nil && !errors.Is(err, fs.ErrNotExist) {
		return "", fmt.Errorf("modelstore: %w", err)
	}
	next := 1
	for _, e := range entries {
		if !e.IsDir() {
			continue
		}
		var n int
		if _, err := fmt.Sscanf(e.Name(), "v%d", &n); err == nil && n >= next {
			next = n + 1
		}
	}
	return fmt.Sprintf("v%04d", next), nil
}

// Manifest reads and validates one version's manifest.
func (s *Store) Manifest(backend, version string) (*Manifest, error) {
	if !validName.MatchString(backend) || !validName.MatchString(version) {
		return nil, fmt.Errorf("%w: %q/%q", ErrBadName, backend, version)
	}
	path := filepath.Join(s.dir, backend, version, manifestFile)
	data, err := os.ReadFile(path)
	if errors.Is(err, fs.ErrNotExist) {
		return nil, fmt.Errorf("%w: %s/%s", ErrNotFound, backend, version)
	}
	if err != nil {
		return nil, fmt.Errorf("modelstore: %w", err)
	}
	m, err := ParseManifest(data)
	if err != nil {
		return nil, fmt.Errorf("%s/%s: %w", backend, version, err)
	}
	if m.Backend != backend || m.Version != version {
		return nil, fmt.Errorf("%w: manifest names %s/%s but lives at %s/%s", ErrBadManifest, m.Backend, m.Version, backend, version)
	}
	return m, nil
}

// Versions lists a backend's valid versions, oldest first (by creation
// time, then version string). Version directories whose manifest is
// corrupt or written by an unsupported format version are skipped — one
// bad version must not brick serving (Latest/Load) or retraining
// (Save's auto-versioning) for the backend; Manifest still reports the
// error when such a version is requested explicitly.
func (s *Store) Versions(backend string) ([]*Manifest, error) {
	if !validName.MatchString(backend) {
		return nil, fmt.Errorf("%w: %q", ErrBadName, backend)
	}
	entries, err := os.ReadDir(filepath.Join(s.dir, backend))
	if errors.Is(err, fs.ErrNotExist) {
		return nil, fmt.Errorf("%w: backend %s", ErrNotFound, backend)
	}
	if err != nil {
		return nil, fmt.Errorf("modelstore: %w", err)
	}
	var out []*Manifest
	var firstBad error
	for _, e := range entries {
		if !e.IsDir() || !validName.MatchString(e.Name()) {
			continue // staging leftovers and strays
		}
		m, err := s.Manifest(backend, e.Name())
		if err != nil {
			if firstBad == nil {
				firstBad = err
			}
			continue
		}
		out = append(out, m)
	}
	if len(out) == 0 {
		if firstBad != nil {
			return nil, firstBad
		}
		return nil, fmt.Errorf("%w: backend %s has no versions", ErrNotFound, backend)
	}
	sort.Slice(out, func(i, j int) bool {
		if !out[i].CreatedAt.Equal(out[j].CreatedAt) {
			return out[i].CreatedAt.Before(out[j].CreatedAt)
		}
		return out[i].Version < out[j].Version
	})
	return out, nil
}

// Latest returns the manifest of a backend's newest version.
func (s *Store) Latest(backend string) (*Manifest, error) {
	manifests, err := s.Versions(backend)
	if err != nil {
		return nil, err
	}
	return manifests[len(manifests)-1], nil
}

// Backends lists backends with at least one version, sorted.
func (s *Store) Backends() ([]string, error) {
	entries, err := os.ReadDir(s.dir)
	if err != nil {
		return nil, fmt.Errorf("modelstore: %w", err)
	}
	var out []string
	for _, e := range entries {
		if !e.IsDir() || !validName.MatchString(e.Name()) {
			continue
		}
		// A backend with no loadable version — empty, or every manifest
		// corrupt/incompatible — is skipped like any other stray: one bad
		// backend directory must not keep `safemond -backends all` from
		// serving the healthy ones. Only unexpected I/O errors propagate.
		if _, err := s.Versions(e.Name()); err != nil {
			if errors.Is(err, ErrNotFound) || errors.Is(err, ErrBadManifest) {
				continue
			}
			return nil, err
		}
		out = append(out, e.Name())
	}
	sort.Strings(out)
	return out, nil
}

// Load reconstructs a ready-to-serve detector from a stored version
// (version "" or "latest" resolves the newest), verifying the manifest's
// checksum against the artifact before decoding. The detector is built
// without any Fit call.
func (s *Store) Load(backend, version string) (safemon.Detector, *Manifest, error) {
	var m *Manifest
	var err error
	if version == "" || version == "latest" {
		m, err = s.Latest(backend)
	} else {
		m, err = s.Manifest(backend, version)
	}
	if err != nil {
		return nil, nil, err
	}
	path := filepath.Join(s.dir, backend, m.Version, artifactFile)
	data, err := os.ReadFile(path)
	if errors.Is(err, fs.ErrNotExist) {
		return nil, nil, fmt.Errorf("%w: %s/%s artifact", ErrNotFound, backend, m.Version)
	}
	if err != nil {
		return nil, nil, fmt.Errorf("modelstore: %w", err)
	}
	if int64(len(data)) != m.SizeBytes || crc32.ChecksumIEEE(data) != m.CRC32 {
		return nil, nil, fmt.Errorf("%w: %s/%s artifact disagrees with manifest (size %d/%d)", ErrBadManifest, backend, m.Version, len(data), m.SizeBytes)
	}
	det, err := safemon.LoadDetector(bytes.NewReader(data))
	if err != nil {
		return nil, nil, fmt.Errorf("modelstore: %s/%s: %w", backend, m.Version, err)
	}
	if got := det.Info().Name; got != backend {
		return nil, nil, fmt.Errorf("%w: artifact at %s/%s is for backend %s", ErrBadManifest, backend, m.Version, got)
	}
	return det, m, nil
}
