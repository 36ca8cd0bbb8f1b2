package serve

import (
	"context"
	"errors"
	"fmt"
	"net/http"
	"sort"
	"time"

	"repro/safemon"
	"repro/safemon/ledger"
)

// Model is one versioned fitted detector the service serves. Version is
// free-form operator metadata (a modelstore version, a git SHA, ...); the
// serving layer only reports and compares it.
type Model struct {
	// Detector is the fitted (or artifact-loaded) backend.
	Detector safemon.Detector
	// Version identifies the model artifact this detector came from.
	Version string
}

// ModelInfo is one row of GET /v1/models: which model version a backend is
// currently serving and since when.
type ModelInfo struct {
	Backend  string    `json:"backend"`
	Version  string    `json:"version"`
	LoadedAt time.Time `json:"loaded_at"`
}

// ErrNoLoader reports a reload request on a server constructed without a
// model loader (e.g. one that fits at startup instead of serving a store).
var ErrNoLoader = errors.New("serve: no model loader configured")

// backendModel is the manager's live state for one backend: the detector,
// its version metadata, and the warm session pool bound to exactly this
// model. Hot-swapping replaces the whole backendModel, never mutates one —
// in-flight streams keep their session (and therefore the old model) until
// they finish, while the retired pool stops recycling sessions.
type backendModel struct {
	det      safemon.Detector
	version  string
	loadedAt time.Time
	pool     *safemon.SessionPool
}

// Swap atomically replaces the manager's model set. New streams opened
// after Swap bind the new models; streams already attached keep pushing
// frames through their existing sessions against the old model and finish
// undisturbed (their Release then closes the session instead of pooling
// it, because the retired pool is closed). A backend whose version string
// is unchanged keeps its current detector and warm pool: versions name
// immutable artifacts, so a loader that re-decodes the same version (as
// the modelstore path does on every reload) must not cost a pool flush —
// publish changed models under a new version. The empty version and the
// "unversioned" placeholder name no immutable artifact and never match
// themselves; such models are replaced unless the detector pointer
// itself is unchanged. Swap fails with ErrDraining during shutdown.
func (m *Manager) Swap(models map[string]Model) error {
	if len(models) == 0 {
		return errors.New("serve: refusing to swap in an empty model set")
	}
	for name, mod := range models {
		if mod.Detector == nil {
			return fmt.Errorf("serve: nil detector for backend %q", name)
		}
	}
	now := time.Now().UTC()
	m.mu.Lock()
	if m.draining {
		m.mu.Unlock()
		return ErrDraining
	}
	old := m.models
	next := make(map[string]*backendModel, len(models))
	for name, mod := range models {
		versioned := mod.Version != "" && mod.Version != "unversioned"
		if prev := old[name]; prev != nil &&
			(prev.det == mod.Detector || (versioned && prev.version == mod.Version)) {
			next[name] = prev // unchanged model: keep the warm pool
			continue
		}
		next[name] = &backendModel{
			det:      mod.Detector,
			version:  mod.Version,
			loadedAt: now,
			pool:     safemon.NewSessionPool(mod.Detector, m.cfg.MaxSessions),
		}
	}
	m.models = next
	m.mu.Unlock()
	// Retire replaced pools outside the lock: idle sessions close now;
	// in-flight streams keep theirs until Release.
	for name, prev := range old {
		if next[name] != prev {
			prev.pool.Close()
		}
	}
	return nil
}

// Models snapshots the current model set, sorted by backend name.
func (m *Manager) Models() []ModelInfo {
	m.mu.RLock()
	out := make([]ModelInfo, 0, len(m.models))
	for name, bm := range m.models {
		out = append(out, ModelInfo{Backend: name, Version: bm.version, LoadedAt: bm.loadedAt})
	}
	m.mu.RUnlock()
	sort.Slice(out, func(i, j int) bool { return out[i].Backend < out[j].Backend })
	return out
}

// backendNames lists the currently served backends, sorted.
func (m *Manager) backendNames() []string {
	models := m.Models()
	out := make([]string, len(models))
	for i, mi := range models {
		out[i] = mi.Backend
	}
	return out
}

// has reports whether a backend is currently served.
func (m *Manager) has(backend string) bool {
	m.mu.RLock()
	defer m.mu.RUnlock()
	_, ok := m.models[backend]
	return ok
}

// soleBackend returns the only served backend name, or "" when the model
// set has more than one entry.
func (m *Manager) soleBackend() string {
	m.mu.RLock()
	defer m.mu.RUnlock()
	if len(m.models) != 1 {
		return ""
	}
	for name := range m.models {
		return name
	}
	return ""
}

// Reload pulls a fresh model set through the configured Loader and swaps
// it in atomically; it backs POST /v1/models/reload and safemond's SIGHUP
// handler. Concurrent reloads are serialized. The returned infos describe
// the model set now serving.
func (s *Server) Reload(ctx context.Context) ([]ModelInfo, error) {
	if s.cfg.Loader == nil {
		return nil, ErrNoLoader
	}
	s.reloadMu.Lock()
	defer s.reloadMu.Unlock()
	models, err := s.cfg.Loader(ctx)
	if err != nil {
		return nil, fmt.Errorf("serve: load models: %w", err)
	}
	prev := make(map[string]string)
	for _, mi := range s.manager.Models() {
		prev[mi.Backend] = mi.Version
	}
	if err := s.manager.Swap(models); err != nil {
		return nil, err
	}
	infos := s.manager.Models()
	for _, mi := range infos {
		s.log().Info("serving model", "backend", mi.Backend, "version", mi.Version)
		if prev[mi.Backend] != mi.Version {
			ledger.ModelSwap(s.cfg.Ledger, mi.Backend, mi.Version, prev[mi.Backend])
		}
	}
	return infos, nil
}

// handleModels answers GET /v1/models with the served model versions.
func (s *Server) handleModels(w http.ResponseWriter, r *http.Request) {
	if getOnly(w, r) {
		writeJSON(w, http.StatusOK, map[string]any{"models": s.manager.Models()})
	}
}

// handleReload answers POST /v1/models/reload by swapping in the loader's
// current model set; the response lists the models now serving.
func (s *Server) handleReload(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		http.Error(w, "POST only", http.StatusMethodNotAllowed)
		return
	}
	infos, err := s.Reload(r.Context())
	if err != nil {
		status := http.StatusInternalServerError
		switch {
		case errors.Is(err, ErrNoLoader):
			status = http.StatusNotImplemented
		case errors.Is(err, ErrDraining):
			status = http.StatusServiceUnavailable
		}
		http.Error(w, err.Error(), status)
		return
	}
	writeJSON(w, http.StatusOK, map[string]any{"models": infos})
}
