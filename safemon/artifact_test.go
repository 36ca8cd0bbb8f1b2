package safemon

import (
	"bytes"
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"os"
	"os/exec"
	"reflect"
	"strings"
	"testing"

	"repro/internal/core"
)

// saveArtifact marshals a fitted detector to bytes.
func saveArtifact(t testing.TB, det Detector) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := det.Save(&buf); err != nil {
		t.Fatalf("save %s: %v", det.Info().Name, err)
	}
	return buf.Bytes()
}

// loadedFixture caches one artifact-loaded detector per backend, built from
// the shared fitted fixture, so round-trip tests and the loaded-session
// performance suite don't refit or re-decode per test.
var loadedFixture struct {
	m map[string]Detector
}

// loadedDetector returns a detector reconstructed from the fitted fixture's
// artifact — the "serve from artifact" path every round-trip test compares
// against its in-memory twin.
func loadedDetector(t testing.TB, backend string) Detector {
	t.Helper()
	det := fittedDetector(t, backend) // shares fittedFixture.mu-free access pattern of tests
	fittedFixture.mu.Lock()
	defer fittedFixture.mu.Unlock()
	if d, ok := loadedFixture.m[backend]; ok {
		return d
	}
	loaded, err := LoadDetector(bytes.NewReader(saveArtifact(t, det)))
	if err != nil {
		t.Fatalf("load %s: %v", backend, err)
	}
	if loadedFixture.m == nil {
		loadedFixture.m = map[string]Detector{}
	}
	loadedFixture.m[backend] = loaded
	return loaded
}

// TestArtifactRoundTripVerdicts is the core round-trip guarantee: for every
// backend, a detector reconstructed from its artifact produces verdicts
// identical to the in-memory fitted detector, across both the batch Runner
// and a manual Session replay (the live-safemond leg lives in
// safemon/serve's golden suite).
func TestArtifactRoundTripVerdicts(t *testing.T) {
	fold := testFold(t)
	ctx := context.Background()
	for _, backend := range Backends() {
		t.Run(backend, func(t *testing.T) {
			det := fittedDetector(t, backend)
			loaded := loadedDetector(t, backend)

			if got, want := loaded.Info(), det.Info(); got != want {
				t.Errorf("loaded Info %+v, want %+v", got, want)
			}

			wantTraces, err := (&Runner{Detector: det, Workers: 2}).Traces(ctx, fold.Test)
			if err != nil {
				t.Fatal(err)
			}
			gotTraces, err := (&Runner{Detector: loaded, Workers: 2}).Traces(ctx, fold.Test)
			if err != nil {
				t.Fatal(err)
			}
			for i := range wantTraces {
				if !reflect.DeepEqual(wantTraces[i].Verdicts, gotTraces[i].Verdicts) {
					t.Fatalf("trajectory %d: loaded Runner verdicts differ", i)
				}
			}

			// Manual replay through a session.
			traj := fold.Test[0]
			sess, err := loaded.NewSession(WithSessionLabels(traj.Gestures))
			if err != nil {
				t.Fatal(err)
			}
			defer sess.Close()
			for i := range traj.Frames {
				v, err := sess.Push(&traj.Frames[i])
				if err != nil {
					t.Fatal(err)
				}
				if want := wantTraces[0].Verdicts[i]; v != want {
					t.Fatalf("frame %d: verdict %+v, want %+v", i, v, want)
				}
			}
		})
	}
}

// TestSaveDeterministic saves every backend's fixture 50 times: one
// fitted detector must always save to one byte string, and so to one
// modelstore checksum. The monitor's per-gesture heads, the per-gesture
// envelopes and the skip chain's tables live in maps, whose iteration
// order changes from walk to walk, so no encoder may write them in map
// order.
func TestSaveDeterministic(t *testing.T) {
	for _, backend := range Backends() {
		t.Run(backend, func(t *testing.T) {
			det := fittedDetector(t, backend)
			first := saveArtifact(t, det)
			for i := 1; i < 50; i++ {
				if !bytes.Equal(saveArtifact(t, det), first) {
					t.Fatalf("save %d differs from the first save", i)
				}
			}
		})
	}
}

// TestFitDeterministic refits every backend on the fixture's data with
// the fixture's options: a fit must be reproducible byte for byte, so
// that a retrained model gets the same modelstore checksum and breaks
// exact score ties the same way. A fit that walks a map to order what it
// learns fails here.
func TestFitDeterministic(t *testing.T) {
	fold := testFold(t)
	for _, backend := range Backends() {
		t.Run(backend, func(t *testing.T) {
			first := saveArtifact(t, fittedDetector(t, backend))
			det, err := Open(backend, quickOptions(backend)...)
			if err != nil {
				t.Fatal(err)
			}
			if err := det.Fit(context.Background(), fold.Train); err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(saveArtifact(t, det), first) {
				t.Fatal("a second fit on the same data saves different bytes")
			}
		})
	}
}

func TestSaveUnfittedFails(t *testing.T) {
	for _, backend := range Backends() {
		det, err := Open(backend)
		if err != nil {
			t.Fatal(err)
		}
		var buf bytes.Buffer
		if err := det.Save(&buf); !errors.Is(err, ErrNotFitted) {
			t.Errorf("%s: Save on unfitted detector = %v, want ErrNotFitted", backend, err)
		}
	}
}

// TestLoadOnFittedFails pins the already-fitted guard: loading an artifact
// into a detector that is serving a model must fail with ErrAlreadyFitted
// and leave the detector untouched.
func TestLoadOnFittedFails(t *testing.T) {
	for _, backend := range []string{"envelope", "skipchain", "context-aware"} {
		t.Run(backend, func(t *testing.T) {
			det := fittedDetector(t, backend)
			art := saveArtifact(t, det)
			if err := det.Load(bytes.NewReader(art)); !errors.Is(err, ErrAlreadyFitted) {
				t.Fatalf("Load on fitted detector = %v, want ErrAlreadyFitted", err)
			}
			// The refused load must not have disturbed the live model.
			if _, err := det.NewSession(WithSessionLabels(nil)); err != nil {
				t.Fatalf("detector unusable after refused load: %v", err)
			}
		})
	}
}

// corrupt applies one mutation to a copy of an artifact.
func corrupt(art []byte, mutate func([]byte)) []byte {
	out := append([]byte(nil), art...)
	mutate(out)
	return out
}

// TestLoadCorruptArtifactTypedErrors feeds systematically damaged artifacts
// through LoadDetector and asserts each failure is the matching typed
// sentinel wrapped in *ArtifactError — and never a panic.
func TestLoadCorruptArtifactTypedErrors(t *testing.T) {
	art := saveArtifact(t, fittedDetector(t, "envelope"))

	cases := []struct {
		name string
		data []byte
		want error
	}{
		{"bad magic", corrupt(art, func(b []byte) { b[0] = 'X' }), ErrBadMagic},
		{"empty", nil, ErrBadMagic},
		{"version bump", corrupt(art, func(b []byte) { binary.BigEndian.PutUint16(b[4:6], 99) }), ErrBadFormatVersion},
		{"truncated header", art[:8], ErrTruncated},
		{"truncated payload", art[:len(art)/2], ErrTruncated},
		{"payload bit flip", corrupt(art, func(b []byte) { b[len(b)/2] ^= 0x40 }), ErrChecksum},
		{"checksum bit flip", corrupt(art, func(b []byte) { b[len(b)-1] ^= 0x01 }), ErrChecksum},
		{"trailing garbage", append(append([]byte(nil), art...), 0xde, 0xad), ErrCorruptPayload},
		{"oversized claim", corrupt(art, func(b []byte) {
			nameLen := int(binary.BigEndian.Uint16(b[8:10]))
			binary.BigEndian.PutUint64(b[10+nameLen:18+nameLen], 1<<62)
		}), ErrOversized},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			_, err := LoadDetector(bytes.NewReader(tc.data))
			if err == nil {
				t.Fatal("corrupt artifact loaded successfully")
			}
			if !errors.Is(err, tc.want) {
				t.Fatalf("error %v, want %v", err, tc.want)
			}
			var ae *ArtifactError
			if !errors.As(err, &ae) {
				t.Fatalf("error %T is not a *ArtifactError", err)
			}
		})
	}
}

// relabel rewrites an artifact's format version and re-seals its
// checksum, so only the version check can refuse it.
func relabel(art []byte, version uint16) []byte {
	out := corrupt(art, func(b []byte) { binary.BigEndian.PutUint16(b[4:6], version) })
	crcAt := len(out) - 4
	binary.BigEndian.PutUint32(out[crcAt:], crc32.ChecksumIEEE(out[:crcAt]))
	return out
}

// TestLoadFormatVersionWindow pins the format versions this build reads:
// it writes ArtifactFormatVersion and still loads a format 1 artifact
// (how a format 1 payload's gob maps decode is pinned by internal/
// baseline's TestParentMapSpecsLoad), while a version outside the window
// is refused even under a valid checksum.
func TestLoadFormatVersionWindow(t *testing.T) {
	for _, backend := range Backends() {
		t.Run(backend, func(t *testing.T) {
			art := saveArtifact(t, fittedDetector(t, backend))
			if v := binary.BigEndian.Uint16(art[4:6]); v != ArtifactFormatVersion {
				t.Fatalf("saved format %d, want %d", v, ArtifactFormatVersion)
			}
			det, err := LoadDetector(bytes.NewReader(relabel(art, OldestArtifactFormatVersion)))
			if err != nil {
				t.Fatalf("format %d artifact: %v", OldestArtifactFormatVersion, err)
			}
			if !bytes.Equal(saveArtifact(t, det), art) {
				t.Fatal("the loaded format 1 artifact re-saves to other bytes than its source")
			}
			for _, v := range []uint16{OldestArtifactFormatVersion - 1, ArtifactFormatVersion + 1} {
				if _, err := LoadDetector(bytes.NewReader(relabel(art, v))); !errors.Is(err, ErrBadFormatVersion) {
					t.Errorf("format %d artifact: err %v, want ErrBadFormatVersion", v, err)
				}
			}
		})
	}
}

// TestLoadBackendMismatch loads an envelope artifact into a skipchain
// detector directly (bypassing LoadDetector's registry dispatch).
func TestLoadBackendMismatch(t *testing.T) {
	art := saveArtifact(t, fittedDetector(t, "envelope"))
	det, err := Open("skipchain")
	if err != nil {
		t.Fatal(err)
	}
	if err := det.Load(bytes.NewReader(art)); !errors.Is(err, ErrBackendMismatch) {
		t.Fatalf("cross-backend Load = %v, want ErrBackendMismatch", err)
	}
}

// rewriteArtifact decodes an artifact's gob payload into p, applies edit
// and re-frames the result with a valid checksum.
func rewriteArtifact[P any](t *testing.T, art []byte, p *P, edit func(*P)) []byte {
	t.Helper()
	backend, payload, err := parseArtifact(art)
	if err != nil {
		t.Fatal(err)
	}
	if err := decodeGob(backend, payload, p); err != nil {
		t.Fatal(err)
	}
	edit(p)
	if payload, err = encodeGob(backend, *p); err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := writeArtifact(&buf, backend, payload); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// TestLoadRefusesQuantizedArtifact pins the refusal of artifacts saved
// with int8-quantized error heads (the persisted Quantized flag), which
// this build cannot serve without changing their verdicts. For the
// cascade only the nested inner-stage artifact carries the flag, so the
// refusal must come from the inner stage's own load.
func TestLoadRefusesQuantizedArtifact(t *testing.T) {
	quantize := func(art []byte) []byte {
		return rewriteArtifact(t, art, &contextPayload{}, func(p *contextPayload) { p.Config.Quantized = true })
	}
	cases := map[string][]byte{
		"context-aware": quantize(saveArtifact(t, fittedDetector(t, "context-aware"))),
		"cascade-inner": rewriteArtifact(t, saveArtifact(t, fittedDetector(t, "cascade")), &cascadePayload{},
			func(p *cascadePayload) { p.Inner = quantize(p.Inner) }),
	}
	for name, art := range cases {
		t.Run(name, func(t *testing.T) {
			_, err := LoadDetector(bytes.NewReader(art))
			var ae *ArtifactError
			if !errors.As(err, &ae) || !errors.Is(err, errQuantizedArtifact) {
				t.Fatalf("LoadDetector = %v, want an *ArtifactError wrapping errQuantizedArtifact", err)
			}
		})
	}
}

// TestLoadLookaheadBlend pins the fixed lookahead blend: an artifact
// carrying a blend other than 0 (the default) or core.LookaheadBlend is
// refused, and one carrying core.LookaheadBlend serves the verdicts of
// the detector that saved it.
func TestLoadLookaheadBlend(t *testing.T) {
	det := fittedDetector(t, "lookahead")
	art := saveArtifact(t, det)
	withBlend := func(b float64) []byte {
		return rewriteArtifact(t, art, &contextPayload{}, func(p *contextPayload) { p.Blend = b })
	}
	_, err := LoadDetector(bytes.NewReader(withBlend(0.5)))
	var ae *ArtifactError
	if !errors.As(err, &ae) || !errors.Is(err, ErrCorruptPayload) {
		t.Fatalf("blend 0.5: LoadDetector = %v, want an *ArtifactError wrapping ErrCorruptPayload", err)
	}
	loaded, err := LoadDetector(bytes.NewReader(withBlend(core.LookaheadBlend)))
	if err != nil {
		t.Fatalf("blend %v: %v", core.LookaheadBlend, err)
	}
	traj := testFold(t).Test[0]
	want, err := det.Run(context.Background(), traj)
	if err != nil {
		t.Fatal(err)
	}
	got, err := loaded.Run(context.Background(), traj)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got.Verdicts, want.Verdicts) {
		t.Fatal("an artifact naming the blend serves other verdicts")
	}
}

// TestSessionAfterFailedLoad pins the partially-loaded guard: after a
// failed Load the detector must refuse sessions (and Run) with an error
// that wraps the typed *ArtifactError — not silently act unfitted, and
// certainly not serve.
func TestSessionAfterFailedLoad(t *testing.T) {
	art := saveArtifact(t, fittedDetector(t, "envelope"))
	bad := corrupt(art, func(b []byte) { b[len(b)/2] ^= 0x40 })

	det, err := Open("envelope")
	if err != nil {
		t.Fatal(err)
	}
	if err := det.Load(bytes.NewReader(bad)); err == nil {
		t.Fatal("corrupt load succeeded")
	}
	_, err = det.NewSession()
	if err == nil {
		t.Fatal("NewSession succeeded on a failed-load detector")
	}
	var ae *ArtifactError
	if !errors.As(err, &ae) {
		t.Fatalf("NewSession error %v does not wrap *ArtifactError", err)
	}
	if !errors.Is(err, ErrChecksum) {
		t.Fatalf("NewSession error %v does not carry the load failure", err)
	}
	if _, err := det.Run(context.Background(), testFold(t).Test[0]); err == nil {
		t.Fatal("Run succeeded on a failed-load detector")
	}
	// A successful Fit fully repairs the detector.
	if err := det.Fit(context.Background(), testFold(t).Train); err != nil {
		t.Fatal(err)
	}
	if _, err := det.NewSession(); err != nil {
		t.Fatalf("NewSession after repair Fit: %v", err)
	}
}

// TestConfigHash pins the manifest fingerprint: stable for one detector,
// equal across a save/load round trip, different across configurations.
func TestConfigHash(t *testing.T) {
	det := fittedDetector(t, "envelope")
	h1, err := ConfigHash(det)
	if err != nil {
		t.Fatal(err)
	}
	h2, err := ConfigHash(det)
	if err != nil {
		t.Fatal(err)
	}
	if h1 != h2 || len(h1) != 24 || strings.Trim(h1, "0123456789abcdef") != "" {
		t.Fatalf("unstable or malformed hash: %q vs %q", h1, h2)
	}
	loaded := loadedDetector(t, "envelope")
	if h3, _ := ConfigHash(loaded); h3 != h1 {
		t.Errorf("loaded detector hash %q differs from fitted %q", h3, h1)
	}
	other, err := Open("envelope", WithThreshold(0.9))
	if err != nil {
		t.Fatal(err)
	}
	if h4, _ := ConfigHash(other); h4 == h1 {
		t.Error("different configs share a hash")
	}
}

// configHashChildEnv puts TestConfigHashAcrossProcesses in child mode:
// "hash" hashes a config first, "save" saves a fitted detector first.
const configHashChildEnv = "SAFEMON_CONFIGHASH_CHILD"

// TestConfigHashAcrossProcesses pins ConfigHash against process history:
// the test binary re-executes itself twice, once hashing a config as its
// first act and once hashing it right after a Save, and both processes
// must print one value. A Save before the first hash is what changed a
// gob-encoded hash, because gob numbers types in first-use order.
func TestConfigHashAcrossProcesses(t *testing.T) {
	if mode := os.Getenv(configHashChildEnv); mode != "" {
		if mode == "save" {
			saveArtifact(t, fittedDetector(t, "envelope"))
		}
		det, err := Open("envelope", WithThreshold(0.7))
		if err != nil {
			t.Fatal(err)
		}
		h, err := ConfigHash(det)
		if err != nil {
			t.Fatal(err)
		}
		fmt.Printf("confighash=%s\n", h)
		return
	}
	hashes := map[string]string{}
	for _, mode := range []string{"hash", "save"} {
		cmd := exec.Command(os.Args[0], "-test.run=^TestConfigHashAcrossProcesses$", "-test.count=1")
		cmd.Env = append(os.Environ(), configHashChildEnv+"="+mode)
		out, err := cmd.CombinedOutput()
		if err != nil {
			t.Fatalf("%s-first process: %v\n%s", mode, err, out)
		}
		_, after, ok := strings.Cut(string(out), "confighash=")
		if !ok {
			t.Fatalf("%s-first process printed no hash:\n%s", mode, out)
		}
		hashes[mode], _, _ = strings.Cut(after, "\n")
	}
	if hashes["hash"] != hashes["save"] {
		t.Errorf("one config hashed %s in a hash-first process and %s in a save-first one", hashes["hash"], hashes["save"])
	}
}
