package serve

import (
	"bytes"
	"context"
	"errors"
	"net/http"
	"net/http/httptest"
	"sync"
	"sync/atomic"
	"testing"

	"repro/safemon"
)

// altModel returns a second fitted detector whose verdict stream is always
// distinguishable from the envelope fixture's (neural scores are never the
// envelope's exact zeros on a safe trajectory). Model identity is keyed by
// the serving name, so swapping a different detector family under the same
// backend name is legal — and the strongest possible swap test.
func altModel(t *testing.T) safemon.Detector {
	t.Helper()
	return fittedDetector(t, "context-aware")
}

// newSwappableService stands up a server whose Loader serves whatever model
// map the returned setter installs.
func newSwappableService(t *testing.T, initial map[string]Model) (*Server, *Client, func(map[string]Model)) {
	t.Helper()
	var current atomic.Value
	current.Store(initial)
	srv, err := NewServer(Config{
		Models: initial,
		Loader: func(ctx context.Context) (map[string]Model, error) {
			return current.Load().(map[string]Model), nil
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(func() {
		ts.Close()
		srv.Shutdown()
	})
	return srv, &Client{BaseURL: ts.URL, HTTPClient: ts.Client()}, func(m map[string]Model) { current.Store(m) }
}

// TestModelsEndpointAndReload covers the model-inventory surface: GET
// /v1/models lists versions, POST /v1/models/reload swaps to the loader's
// current set, and new streams immediately bind the new version.
func TestModelsEndpointAndReload(t *testing.T) {
	fold := testFold(t)
	traj := fold.Test[0]
	ctx := context.Background()
	detA := fittedDetector(t, "envelope")
	detB := altModel(t)

	_, client, set := newSwappableService(t, map[string]Model{"envelope": {Detector: detA, Version: "v1"}})

	models, err := client.Models(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if len(models) != 1 || models[0].Backend != "envelope" || models[0].Version != "v1" {
		t.Fatalf("models = %+v", models)
	}

	refA, err := detA.Run(ctx, traj)
	if err != nil {
		t.Fatal(err)
	}
	refB, err := detB.Run(ctx, traj)
	if err != nil {
		t.Fatal(err)
	}
	if bytes.Equal(wireLines(t, refA.Verdicts), wireLines(t, refB.Verdicts)) {
		t.Fatal("test models are not distinguishable; pick different thresholds")
	}

	got, err := client.StreamTrajectory(ctx, "envelope", traj)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(wireLines(t, got), wireLines(t, refA.Verdicts)) {
		t.Fatal("pre-swap stream does not match model v1")
	}

	set(map[string]Model{"envelope": {Detector: detB, Version: "v2"}})
	swapped, err := client.Reload(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if len(swapped) != 1 || swapped[0].Version != "v2" {
		t.Fatalf("post-reload models = %+v", swapped)
	}

	// Every stream opened after the swap must ride v2, the second as
	// much as the first.
	for pass := 0; pass < 2; pass++ {
		got, err = client.StreamTrajectory(ctx, "envelope", traj)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(wireLines(t, got), wireLines(t, refB.Verdicts)) {
			t.Fatalf("pass %d: post-swap stream does not match model v2", pass)
		}
	}
}

// TestReloadWithoutLoader pins the no-loader contract: a fit-at-startup
// server answers reload requests with 501 Not Implemented.
func TestReloadWithoutLoader(t *testing.T) {
	det := fittedDetector(t, "envelope")
	srv, client := newTestService(t, map[string]safemon.Detector{"envelope": det}, ManagerConfig{})
	if _, err := srv.Reload(context.Background()); !errors.Is(err, ErrNoLoader) {
		t.Fatalf("Reload = %v, want ErrNoLoader", err)
	}
	_, err := client.Reload(context.Background())
	var em *ErrorMsg
	if !errors.As(err, &em) || em.Code != http.StatusNotImplemented {
		t.Fatalf("client reload = %v, want HTTP 501", err)
	}
}

// TestHotSwapUnderLiveTraffic is the zero-downtime acceptance test: while
// concurrent streams replay trajectories, the model set is swapped back and
// forth. Every stream must run to completion with exactly one in-order
// verdict per frame (no drops, no reorders), and every completed stream's
// verdicts must equal one of the two models' offline replay — a mid-stream
// model change would splice the two and match neither.
func TestHotSwapUnderLiveTraffic(t *testing.T) {
	fold := testFold(t)
	traj := fold.Test[0]
	ctx := context.Background()
	detA := fittedDetector(t, "envelope")
	detB := altModel(t)

	_, client, set := newSwappableService(t, map[string]Model{"envelope": {Detector: detA, Version: "v1"}})

	refA, err := detA.Run(ctx, traj)
	if err != nil {
		t.Fatal(err)
	}
	refB, err := detB.Run(ctx, traj)
	if err != nil {
		t.Fatal(err)
	}
	wantA, wantB := wireLines(t, refA.Verdicts), wireLines(t, refB.Verdicts)

	const streams = 12
	var wg sync.WaitGroup
	var matchedA, matchedB atomic.Int64
	errc := make(chan error, streams)
	for i := 0; i < streams; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			got, err := client.StreamTrajectory(ctx, "envelope", traj)
			if err != nil {
				errc <- err
				return
			}
			if len(got) != traj.Len() {
				errc <- errors.New("dropped frames: short verdict stream")
				return
			}
			for j, v := range got {
				if v.FrameIndex != j {
					errc <- errors.New("reordered verdicts")
					return
				}
			}
			switch wire := wireLines(t, got); {
			case bytes.Equal(wire, wantA):
				matchedA.Add(1)
			case bytes.Equal(wire, wantB):
				matchedB.Add(1)
			default:
				errc <- errors.New("stream verdicts match neither model (mid-stream swap leak)")
			}
		}()
	}

	// Swap back and forth while the streams run. After every reload, a
	// fresh synchronous stream must match exactly the version just
	// installed — deterministically exercising both models even if the
	// concurrent streams drain fast.
	for i := 0; i < 6; i++ {
		want := wantB
		if i%2 == 0 {
			set(map[string]Model{"envelope": {Detector: detB, Version: "v2"}})
		} else {
			set(map[string]Model{"envelope": {Detector: detA, Version: "v1"}})
			want = wantA
		}
		if _, err := client.Reload(ctx); err != nil {
			t.Fatal(err)
		}
		got, err := client.StreamTrajectory(ctx, "envelope", traj)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(wireLines(t, got), want) {
			t.Fatalf("reload %d: fresh stream does not match the just-installed model", i)
		}
	}
	wg.Wait()
	close(errc)
	for err := range errc {
		t.Error(err)
	}
	t.Logf("streams matched: v1=%d v2=%d", matchedA.Load(), matchedB.Load())
	if matchedA.Load()+matchedB.Load() != streams {
		t.Fatalf("only %d/%d streams completed cleanly", matchedA.Load()+matchedB.Load(), streams)
	}
}

// TestSwapSameVersionKeepsModel pins version-keyed model retention:
// versions name immutable artifacts, so a reload that re-decodes the same
// version into a fresh detector instance (the modelstore loader does this
// every time) must keep the incumbent detector and its load time, while a
// new version must actually switch models.
func TestSwapSameVersionKeepsModel(t *testing.T) {
	fold := testFold(t)
	traj := fold.Test[0]
	ctx := context.Background()
	detA := fittedDetector(t, "envelope")
	detB := altModel(t)

	m, err := NewManagerModels(map[string]Model{"envelope": {Detector: detA, Version: "v1"}}, ManagerConfig{})
	if err != nil {
		t.Fatal(err)
	}
	defer m.Close()

	verdictOf := func() safemon.FrameVerdict {
		t.Helper()
		if err := m.Reserve(); err != nil {
			t.Fatal(err)
		}
		s, err := m.Open("envelope", traj.Gestures)
		if err != nil {
			m.Unreserve()
			t.Fatal(err)
		}
		v, err := s.Push(ctx, &traj.Frames[len(traj.Frames)-1])
		if err != nil {
			t.Fatal(err)
		}
		s.Release(true)
		return v
	}

	before := verdictOf()
	// Same version, different (freshly loaded) detector instance: keep.
	if err := m.Swap(map[string]Model{"envelope": {Detector: detB, Version: "v1"}}); err != nil {
		t.Fatal(err)
	}
	if got := verdictOf(); got != before {
		t.Fatalf("same-version swap changed the serving model: %+v vs %+v", got, before)
	}
	loadedAt := m.Models()[0].LoadedAt
	// New version: switch.
	if err := m.Swap(map[string]Model{"envelope": {Detector: detB, Version: "v2"}}); err != nil {
		t.Fatal(err)
	}
	if got := verdictOf(); got == before {
		t.Fatal("new-version swap did not switch the serving model")
	}
	if m.Models()[0].LoadedAt == loadedAt {
		t.Error("new version kept the old loadedAt")
	}
}

// TestSwapWhileDraining pins Swap's shutdown interaction.
func TestSwapWhileDraining(t *testing.T) {
	det := fittedDetector(t, "envelope")
	m, err := NewManagerModels(map[string]Model{"envelope": {Detector: det, Version: "v1"}}, ManagerConfig{})
	if err != nil {
		t.Fatal(err)
	}
	m.Close()
	if err := m.Swap(map[string]Model{"envelope": {Detector: det, Version: "v2"}}); !errors.Is(err, ErrDraining) {
		t.Fatalf("Swap after Close = %v, want ErrDraining", err)
	}
}
