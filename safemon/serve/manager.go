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
	// ErrQueueFull reports that a /v1/mux session's frame queue was full
	// when its next frame arrived — the per-sid backpressure signal,
	// answered at once, since the connection reader never waits.
	ErrQueueFull = errors.New("serve: queue full")
	// ErrBusy reports that the service is at its concurrent-session cap.
	ErrBusy = errors.New("serve: too many concurrent sessions")
	// ErrDraining reports that the manager is shutting down.
	ErrDraining = errors.New("serve: draining")
	// ErrUnknownBackend reports a backend name the server does not serve.
	ErrUnknownBackend = errors.New("serve: unknown backend")
	// ErrSessionPanic reports that a session's backend panicked while
	// scoring or preparing a frame. The stream ends and its session is
	// closed; the process and every other stream keep running.
	ErrSessionPanic = errors.New("serve: session panic")
)

// managerStats aggregates the manager's counters. All fields are
// atomics: stream owners write, /metrics reads.
type managerStats struct {
	frames         atomic.Uint64 // frames pushed through sessions
	sessionsOpened atomic.Uint64 // streams attached by Open
	sessionsClosed atomic.Uint64 // streams released (opened - closed = active)
	panics         atomic.Uint64 // pushes and prepares ended by a recovered panic
}

// ManagerConfig tunes the session manager. A /v1/mux session's frame
// queue has no setting: a full queue is answered ErrQueueFull (429) at
// once.
type ManagerConfig struct {
	// MaxSessions caps concurrently attached streams; <= 0 means 1024.
	// Each stream has at most one push in flight, so it also bounds
	// concurrent inference.
	MaxSessions int
}

func (c ManagerConfig) withDefaults() ManagerConfig {
	if c.MaxSessions <= 0 {
		c.MaxSessions = 1024
	}
	return c
}

// Manager owns the per-backend versioned models. Streams attach with
// Open, which gives each its own session, push frames with Session.Push,
// and detach with Session.Release, which closes it; Swap hot-replaces the
// model set under live traffic; Close drains everything.
type Manager struct {
	cfg      ManagerConfig
	stats    managerStats
	metrics  *obs.Registry // the manager's counters; a Server exports everything through it
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
	m := &Manager{cfg: cfg, metrics: obs.NewRegistry(), models: map[string]*backendModel{}}
	now := time.Now().UTC()
	for name, mod := range models {
		if mod.Detector == nil {
			return nil, fmt.Errorf("serve: nil detector for backend %q", name)
		}
		m.models[name] = &backendModel{det: mod.Detector, version: mod.Version, loadedAt: now}
	}
	reg := m.metrics
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

// Session is one stream attached to the manager: its own safemon
// session, driven by the goroutine that owns the stream.
type Session struct {
	m       *Manager
	sess    safemon.Session
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

// Open attaches a new stream for the named backend with a new session of
// the backend's *current* model (streams opened after a Swap bind the new
// model version; one opened just before keeps the model it read, like any
// stream attached before the swap). The caller must hold a Reserve slot;
// on success the Session owns it (Release frees it), on error the caller
// keeps it and must Unreserve. groundTruth supplies per-frame gesture
// labels (nil when the backend infers its own context); opts decorate the
// session as in safemon.Detector.NewSession (the server's WithGuard).
func (m *Manager) Open(backend string, groundTruth []int, opts ...safemon.SessionOption) (*Session, error) {
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
	sess, err := bm.det.NewSession(append([]safemon.SessionOption{safemon.WithSessionLabels(groundTruth)}, opts...)...)
	if err != nil {
		return nil, err
	}
	m.stats.sessionsOpened.Add(1)
	return &Session{m: m, sess: sess, version: bm.version}, nil
}

// Push scores one frame on the calling goroutine and returns its
// verdict; a session opened with a guard has also stepped its policy.
// Push is single-caller, like safemon.Session: the goroutine that owns
// the stream is its only caller, so a stream has at most one push in
// flight and MaxSessions bounds concurrent inference. A panic in the
// backend or its guard is recovered into an error wrapping
// ErrSessionPanic, and the stream should end.
func (s *Session) Push(ctx context.Context, frame *safemon.Frame) (v safemon.FrameVerdict, err error) {
	m := s.m
	if !m.enter() {
		return v, ErrDraining
	}
	defer m.inflight.Done()
	if err := ctx.Err(); err != nil {
		return v, err
	}
	defer m.recoverPanic(&err)
	if v, err = s.sess.Push(frame); err == nil {
		m.stats.frames.Add(1)
	}
	return v, err
}

// Prepare runs the frame-independent part of the session's next Push
// (safemon.Session.Prepare) on the calling goroutine, under Push's rules:
// it does nothing while the manager drains, counts as in flight for
// Close, and recovers a backend panic into an error wrapping
// ErrSessionPanic, after which the stream should end. Like Push, it is
// single-caller.
func (s *Session) Prepare() (err error) {
	m := s.m
	if !m.enter() {
		return nil
	}
	defer m.inflight.Done()
	defer m.recoverPanic(&err)
	s.sess.Prepare()
	return nil
}

// enter admits one push or prepare as in flight, unless the manager
// drains; the caller owes inflight.Done when it returns true.
func (m *Manager) enter() bool {
	m.mu.RLock()
	defer m.mu.RUnlock()
	if m.draining {
		return false
	}
	m.inflight.Add(1)
	return true
}

// recoverPanic, deferred, turns a backend panic into an error wrapping
// ErrSessionPanic in *err and counts it. The call that panicked assigned
// no results, so a push's verdict stays zero.
func (m *Manager) recoverPanic(err *error) {
	if r := recover(); r != nil {
		m.stats.panics.Add(1)
		*err = fmt.Errorf("%w: %v", ErrSessionPanic, r)
	}
}

// Release detaches the stream and closes its session, freeing its slot.
// The argument is unused: every session is closed, so a failed one can
// never serve another stream. Release is idempotent.
func (s *Session) Release(bool) {
	if s.done {
		return
	}
	s.done = true
	s.m.stats.sessionsClosed.Add(1)
	s.m.active.Add(-1)
	s.sess.Close()
	s.sess = nil
}

// Close drains the manager: new Opens and Pushes fail with ErrDraining,
// and Close returns once in-flight pushes complete. Attached streams keep
// their sessions until Release.
func (m *Manager) Close() {
	m.mu.Lock()
	m.draining = true
	m.mu.Unlock()
	m.inflight.Wait()
}
