package modelstore

import (
	"context"
	"encoding/json"
	"errors"
	"os"
	"path/filepath"
	"reflect"
	"sync"
	"testing"

	"repro/internal/dataset"
	"repro/internal/gesture"
	"repro/internal/synth"
	"repro/safemon"
)

// fixture shares one tiny fold and one fitted envelope detector across the
// package's tests (envelope fits in milliseconds).
var fixture struct {
	once sync.Once
	fold dataset.LOSOSplit
	det  safemon.Detector
	err  error
}

func fittedEnvelope(t testing.TB) (safemon.Detector, dataset.LOSOSplit) {
	t.Helper()
	fixture.once.Do(func() {
		demos, err := synth.Generate(synth.Config{
			Task: gesture.Suturing, Hz: 30, Seed: 23,
			NumDemos: 4, NumTrials: 2, Subjects: 2, DurationScale: 0.3,
		})
		if err != nil {
			fixture.err = err
			return
		}
		fixture.fold = dataset.LOSO(synth.Trajectories(demos))[0]
		det, err := safemon.Open("envelope", safemon.WithThreshold(0.2))
		if err != nil {
			fixture.err = err
			return
		}
		if err := det.Fit(context.Background(), fixture.fold.Train); err != nil {
			fixture.err = err
			return
		}
		fixture.det = det
	})
	if fixture.err != nil {
		t.Fatal(fixture.err)
	}
	return fixture.det, fixture.fold
}

func TestSaveLoadRoundTrip(t *testing.T) {
	det, fold := fittedEnvelope(t)
	store, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}

	m, err := store.Save(det, "")
	if err != nil {
		t.Fatal(err)
	}
	if m.Version != "v0001" || m.Backend != "envelope" {
		t.Fatalf("manifest %+v", m)
	}
	if m.TrainConfigHash == "" {
		t.Error("manifest missing train-config hash")
	}
	wantHash, err := safemon.ConfigHash(det)
	if err != nil {
		t.Fatal(err)
	}
	if m.TrainConfigHash != wantHash {
		t.Errorf("hash %s, want %s", m.TrainConfigHash, wantHash)
	}

	loaded, lm, err := store.Load("envelope", "")
	if err != nil {
		t.Fatal(err)
	}
	if lm.Version != "v0001" {
		t.Errorf("loaded version %s", lm.Version)
	}
	ctx := context.Background()
	want, err := det.Run(ctx, fold.Test[0])
	if err != nil {
		t.Fatal(err)
	}
	got, err := loaded.Run(ctx, fold.Test[0])
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(want.Verdicts, got.Verdicts) {
		t.Fatal("store-loaded detector verdicts differ from fitted")
	}
}

func TestVersionSequenceAndLatest(t *testing.T) {
	det, _ := fittedEnvelope(t)
	store, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := store.Save(det, ""); err != nil {
		t.Fatal(err)
	}
	if _, err := store.Save(det, ""); err != nil {
		t.Fatal(err)
	}
	if _, err := store.Save(det, "candidate-2026.07"); err != nil {
		t.Fatal(err)
	}
	versions, err := store.Versions("envelope")
	if err != nil {
		t.Fatal(err)
	}
	if len(versions) != 3 {
		t.Fatalf("got %d versions", len(versions))
	}
	latest, err := store.Latest("envelope")
	if err != nil {
		t.Fatal(err)
	}
	if latest.Version != versions[2].Version {
		t.Errorf("latest %s, want %s", latest.Version, versions[2].Version)
	}
	backends, err := store.Backends()
	if err != nil {
		t.Fatal(err)
	}
	if len(backends) != 1 || backends[0] != "envelope" {
		t.Errorf("backends %v", backends)
	}
}

func TestVersionsAreImmutable(t *testing.T) {
	det, _ := fittedEnvelope(t)
	store, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := store.Save(det, "v1"); err != nil {
		t.Fatal(err)
	}
	if _, err := store.Save(det, "v1"); !errors.Is(err, ErrVersionExists) {
		t.Fatalf("overwrite = %v, want ErrVersionExists", err)
	}
}

func TestNotFoundAndBadNames(t *testing.T) {
	store, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := store.Load("envelope", ""); !errors.Is(err, ErrNotFound) {
		t.Errorf("empty store Load = %v, want ErrNotFound", err)
	}
	if _, err := store.Versions("no-such-backend"); !errors.Is(err, ErrNotFound) {
		t.Errorf("Versions = %v, want ErrNotFound", err)
	}
	if _, err := store.Manifest("../escape", "v1"); !errors.Is(err, ErrBadName) {
		t.Errorf("path-traversal backend = %v, want ErrBadName", err)
	}
	if _, err := store.Manifest("envelope", ".hidden"); !errors.Is(err, ErrBadName) {
		t.Errorf("dot version = %v, want ErrBadName", err)
	}
}

func TestManifestArtifactCrossCheck(t *testing.T) {
	det, _ := fittedEnvelope(t)
	dir := t.TempDir()
	store, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := store.Save(det, "v1"); err != nil {
		t.Fatal(err)
	}
	// Corrupt the artifact under the manifest's feet.
	path := filepath.Join(dir, "envelope", "v1", artifactFile)
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	data[len(data)/2] ^= 0x01
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, _, err := store.Load("envelope", "v1"); !errors.Is(err, ErrBadManifest) {
		t.Fatalf("Load of tampered artifact = %v, want ErrBadManifest", err)
	}
}

// TestBadVersionDoesNotBrickStore pins the degraded-store contract: one
// version with a corrupt manifest must not take down Latest/Load for the
// good versions, nor Save's auto-versioning — only an explicit request for
// the bad version fails.
func TestBadVersionDoesNotBrickStore(t *testing.T) {
	det, _ := fittedEnvelope(t)
	dir := t.TempDir()
	store, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := store.Save(det, ""); err != nil { // v0001
		t.Fatal(err)
	}
	if _, err := store.Save(det, ""); err != nil { // v0002
		t.Fatal(err)
	}
	// Corrupt v0002's manifest.
	bad := filepath.Join(dir, "envelope", "v0002", manifestFile)
	if err := os.WriteFile(bad, []byte("{not json"), 0o644); err != nil {
		t.Fatal(err)
	}

	latest, err := store.Latest("envelope")
	if err != nil {
		t.Fatalf("Latest with one bad version: %v", err)
	}
	if latest.Version != "v0001" {
		t.Errorf("latest %s, want the surviving v0001", latest.Version)
	}
	if _, _, err := store.Load("envelope", ""); err != nil {
		t.Fatalf("Load latest: %v", err)
	}
	if _, err := store.Manifest("envelope", "v0002"); !errors.Is(err, ErrBadManifest) {
		t.Errorf("explicit bad version = %v, want ErrBadManifest", err)
	}
	// Auto-versioning must step past the bad directory, not collide.
	m, err := store.Save(det, "")
	if err != nil {
		t.Fatalf("Save after corruption: %v", err)
	}
	if m.Version != "v0003" {
		t.Errorf("next version %s, want v0003", m.Version)
	}
	backends, err := store.Backends()
	if err != nil || len(backends) != 1 {
		t.Errorf("Backends = %v, %v", backends, err)
	}

	// A backend whose only version is bad is skipped entirely — it must
	// not keep Backends() (and thus `safemond -backends all`) from
	// serving the healthy backends.
	if err := os.MkdirAll(filepath.Join(dir, "otherbackend", "v1"), 0o755); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(dir, "otherbackend", "v1", manifestFile), []byte("{oops"), 0o644); err != nil {
		t.Fatal(err)
	}
	backends, err = store.Backends()
	if err != nil {
		t.Fatalf("Backends with a fully-bad backend dir: %v", err)
	}
	if len(backends) != 1 || backends[0] != "envelope" {
		t.Errorf("Backends = %v, want [envelope]", backends)
	}
}

func TestParseManifestValidation(t *testing.T) {
	good := Manifest{
		Backend: "envelope", Version: "v1",
		FormatVersion: safemon.ArtifactFormatVersion, SizeBytes: 10,
	}
	enc := func(m Manifest) []byte {
		data, _ := json.Marshal(m)
		return data
	}
	if _, err := ParseManifest(enc(good)); err != nil {
		t.Fatalf("valid manifest rejected: %v", err)
	}
	old := good
	old.FormatVersion = safemon.OldestArtifactFormatVersion
	if _, err := ParseManifest(enc(old)); err != nil {
		t.Fatalf("format %d manifest rejected: %v", old.FormatVersion, err)
	}
	cases := map[string]Manifest{
		"empty backend":  {Version: "v1", FormatVersion: 1, SizeBytes: 10},
		"bad version":    {Backend: "envelope", Version: "../up", FormatVersion: 1, SizeBytes: 10},
		"future format":  {Backend: "envelope", Version: "v1", FormatVersion: 99, SizeBytes: 10},
		"format zero":    {Backend: "envelope", Version: "v1", FormatVersion: 0, SizeBytes: 10},
		"zero size":      {Backend: "envelope", Version: "v1", FormatVersion: 1},
		"dotted version": {Backend: "envelope", Version: ".v1", FormatVersion: 1, SizeBytes: 10},
	}
	for name, m := range cases {
		if _, err := ParseManifest(enc(m)); !errors.Is(err, ErrBadManifest) {
			t.Errorf("%s: err = %v, want ErrBadManifest", name, err)
		}
	}
	if _, err := ParseManifest([]byte("{")); !errors.Is(err, ErrBadManifest) {
		t.Errorf("syntax error: %v", err)
	}
}

// FuzzParseManifest holds the manifest decoder to the same contract as the
// artifact decoder: arbitrary bytes yield ErrBadManifest or a validated
// manifest, never a panic.
func FuzzParseManifest(f *testing.F) {
	f.Add([]byte(`{}`))
	f.Add([]byte(`{"backend":"envelope","version":"v1","format_version":1,"size_bytes":10}`))
	f.Add([]byte(`{"backend":"../x","version":"v1","format_version":1,"size_bytes":10}`))
	f.Add([]byte(`not json`))
	f.Fuzz(func(t *testing.T, data []byte) {
		m, err := ParseManifest(data)
		if err != nil {
			if !errors.Is(err, ErrBadManifest) {
				t.Fatalf("non-typed error %v", err)
			}
			return
		}
		if !validName.MatchString(m.Backend) || !validName.MatchString(m.Version) {
			t.Fatalf("accepted manifest with invalid names: %+v", m)
		}
	})
}
