package serve

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"repro/safemon"
	"repro/safemon/obs"
)

// Backpressure and lifecycle sentinels.
var (
	// ErrQueueFull reports that a /v1/mux session's frame channel stayed
	// full past the enqueue timeout — the per-sid backpressure signal.
	ErrQueueFull = errors.New("serve: queue full")
	// ErrBusy reports that the service is at its concurrent-session cap.
	ErrBusy = errors.New("serve: too many concurrent sessions")
	// ErrDraining reports that the manager is shutting down.
	ErrDraining = errors.New("serve: draining")
	// ErrUnknownBackend reports a backend name the server does not serve.
	ErrUnknownBackend = errors.New("serve: unknown backend")
	// ErrSessionPanic reports that a session's backend panicked while
	// scoring a frame. The stream ends and its session is closed, never
	// pooled; the process and every other stream keep running.
	ErrSessionPanic = errors.New("serve: session panic")
)

// managerStats aggregates the manager's counters. All fields are
// atomics: stream owners write, /metrics reads.
type managerStats struct {
	frames         atomic.Uint64 // frames pushed through sessions
	sessionsOpened atomic.Uint64 // streams attached by Open
	sessionsClosed atomic.Uint64 // streams released (opened - closed = active)
	panics         atomic.Uint64 // pushes ended by a recovered panic
}

// ManagerConfig tunes the session manager.
type ManagerConfig struct {
	// MaxSessions caps concurrently attached streams and each backend's
	// warm session pool; <= 0 means 1024. Each stream has at most one
	// push in flight, so it also bounds concurrent inference.
	MaxSessions int
	// EnqueueTimeout bounds how long a /v1/mux connection reader waits
	// on a session's full frame channel before answering that sid with
	// ErrQueueFull (429); <= 0 means 100ms.
	EnqueueTimeout time.Duration
	// Metrics receives the manager's frame, session and panic counters
	// (and, under a Server, everything else the service exports at
	// /metrics). Nil mints a private registry. A registry must not be
	// shared between managers: series names would collide.
	Metrics *obs.Registry
}

func (c ManagerConfig) withDefaults() ManagerConfig {
	if c.MaxSessions <= 0 {
		c.MaxSessions = 1024
	}
	if c.EnqueueTimeout <= 0 {
		c.EnqueueTimeout = 100 * time.Millisecond
	}
	if c.Metrics == nil {
		c.Metrics = obs.NewRegistry()
	}
	return c
}

// Manager owns the per-backend versioned models with their warm session
// pools. Streams attach with Open, push frames with Session.Push, and
// detach with Session.Release; Swap hot-replaces the model set under
// live traffic; Close drains everything.
type Manager struct {
	cfg      ManagerConfig
	stats    managerStats
	inflight sync.WaitGroup
	active   atomic.Int64 // attached streams, for the MaxSessions cap

	mu       sync.RWMutex
	models   map[string]*backendModel
	draining bool
}

// NewManager builds a manager over fitted detectors keyed by the backend
// name clients will request, with every model reported as version
// "unversioned". Use NewManagerModels to carry version metadata.
func NewManager(detectors map[string]safemon.Detector, cfg ManagerConfig) (*Manager, error) {
	models := make(map[string]Model, len(detectors))
	for name, det := range detectors {
		models[name] = Model{Detector: det, Version: "unversioned"}
	}
	return NewManagerModels(models, cfg)
}

// NewManagerModels builds a manager over versioned models keyed by the
// backend name clients will request.
func NewManagerModels(models map[string]Model, cfg ManagerConfig) (*Manager, error) {
	if len(models) == 0 {
		return nil, errors.New("serve: no detectors to serve")
	}
	cfg = cfg.withDefaults()
	m := &Manager{cfg: cfg, models: map[string]*backendModel{}}
	now := time.Now().UTC()
	for name, mod := range models {
		if mod.Detector == nil {
			return nil, fmt.Errorf("serve: nil detector for backend %q", name)
		}
		m.models[name] = &backendModel{
			det:      mod.Detector,
			version:  mod.Version,
			loadedAt: now,
			pool:     safemon.NewSessionPool(mod.Detector, cfg.MaxSessions),
		}
	}
	reg := cfg.Metrics
	reg.CounterFunc("safemon_frames_total",
		"Frames pushed through sessions.", m.stats.frames.Load)
	reg.CounterFunc("safemon_sessions_opened_total",
		"Streams attached to a session.", m.stats.sessionsOpened.Load)
	reg.CounterFunc("safemon_sessions_closed_total",
		"Streams released (opened - closed = active).", m.stats.sessionsClosed.Load)
	reg.CounterFunc("safemon_session_panics_total",
		"Frame pushes ended by a recovered backend panic.", m.stats.panics.Load)
	return m, nil
}

// Session is one stream attached to the manager: a pooled safemon
// session driven by the goroutine that owns the stream.
type Session struct {
	m       *Manager
	sess    safemon.Session
	pool    *safemon.SessionPool
	version string
	done    bool
}

// Version reports the model version the session was bound to at Open
// (streams keep their version across hot-swaps).
func (s *Session) Version() string { return s.version }

// Reserve claims one session slot ahead of Open, so admission control can
// answer before any stream bytes flow (HTTP 429/503 instead of an
// in-stream record). Every successful Reserve must be paired with either a
// successful Open (whose Session.Release frees the slot) or an Unreserve.
func (m *Manager) Reserve() error {
	m.mu.RLock()
	draining := m.draining
	m.mu.RUnlock()
	if draining {
		return ErrDraining
	}
	if m.active.Add(1) > int64(m.cfg.MaxSessions) {
		m.active.Add(-1)
		return ErrBusy
	}
	return nil
}

// Unreserve frees a slot claimed by Reserve when Open was never reached.
func (m *Manager) Unreserve() { m.active.Add(-1) }

// Open attaches a new stream for the named backend, drawing a warm session
// from the backend's *current* model (streams opened after a Swap bind the
// new model version). The caller must hold a Reserve slot; on success the
// Session owns it (Release frees it), on error the caller keeps it and
// must Unreserve. groundTruth supplies per-frame gesture labels (nil when
// the backend infers its own context).
func (m *Manager) Open(backend string, groundTruth []int) (*Session, error) {
	for {
		m.mu.RLock()
		draining := m.draining
		bm := m.models[backend]
		m.mu.RUnlock()
		if draining {
			return nil, ErrDraining
		}
		if bm == nil {
			return nil, fmt.Errorf("%w: %q", ErrUnknownBackend, backend)
		}
		sess, err := bm.pool.Get(groundTruth)
		if err != nil {
			return nil, err
		}
		// Re-check after Get: a Swap that raced us may have retired this
		// model, and Get on its closed pool silently falls back to a fresh
		// session of the OLD detector — which a stream opened after the
		// swap returned must never see. Retry against the current map;
		// each retry observes a strictly newer model set, so this cannot
		// livelock outside a continuous swap storm.
		m.mu.RLock()
		current := m.models[backend] == bm
		m.mu.RUnlock()
		if !current {
			sess.Close()
			continue
		}
		m.stats.sessionsOpened.Add(1)
		return &Session{m: m, sess: sess, pool: bm.pool, version: bm.version}, nil
	}
}

// Push scores one frame on the calling goroutine and returns its
// verdict. Push is single-caller, like safemon.Session: the goroutine
// that owns the stream is its only caller, so a stream has at most one
// push in flight and MaxSessions bounds concurrent inference. A panic in
// the backend is recovered into an error wrapping ErrSessionPanic; the
// caller must then Release the session unhealthy.
func (s *Session) Push(ctx context.Context, frame *safemon.Frame) (v safemon.FrameVerdict, err error) {
	m := s.m
	m.mu.RLock()
	if m.draining {
		m.mu.RUnlock()
		return v, ErrDraining
	}
	m.inflight.Add(1)
	m.mu.RUnlock()
	defer m.inflight.Done()
	if err := ctx.Err(); err != nil {
		return v, err
	}
	defer func() {
		if r := recover(); r != nil {
			m.stats.panics.Add(1)
			v, err = safemon.FrameVerdict{}, fmt.Errorf("%w: %v", ErrSessionPanic, r)
		}
	}()
	if v, err = s.sess.Push(frame); err == nil {
		m.stats.frames.Add(1)
	}
	return v, err
}

// Release detaches the stream. A healthy session (its last Push returned
// no error) goes back to the warm pool; a failed one is closed. Release is
// idempotent.
func (s *Session) Release(healthy bool) {
	if s.done {
		return
	}
	s.done = true
	s.m.stats.sessionsClosed.Add(1)
	s.m.active.Add(-1)
	if healthy {
		s.pool.Put(s.sess)
	} else {
		s.sess.Close()
	}
	s.sess = nil
}

// Close drains the manager: new Opens and Pushes fail with ErrDraining,
// in-flight pushes complete, then the warm pools are closed. A second
// Close waits for the same in-flight pushes and returns.
func (m *Manager) Close() {
	m.mu.Lock()
	closed := m.draining
	m.draining = true
	models := m.models
	m.mu.Unlock()
	m.inflight.Wait()
	if closed {
		return
	}
	for _, bm := range models {
		bm.pool.Close()
	}
}
