package serve

import (
	"context"
	"errors"
	"fmt"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"repro/safemon"
	"repro/safemon/obs"
)

// Backpressure and lifecycle sentinels.
var (
	// ErrQueueFull reports that a shard mailbox stayed full past the
	// enqueue timeout — the explicit mid-stream backpressure signal.
	ErrQueueFull = errors.New("serve: shard queue full")
	// ErrBusy reports that the service is at its concurrent-session cap.
	ErrBusy = errors.New("serve: too many concurrent sessions")
	// ErrDraining reports that the manager is shutting down.
	ErrDraining = errors.New("serve: draining")
	// ErrUnknownBackend reports a backend name the server does not serve.
	ErrUnknownBackend = errors.New("serve: unknown backend")
)

// pushTrace carries one frame's shard-side stage timings back to the
// stream handler: mailbox queue wait and inference. The shard goroutine
// writes it before sending the reply; the handler reads it after
// receiving the reply, so the reply channel's happens-before edge orders
// the fields without any atomics.
type pushTrace struct {
	queueNS int64 // enqueue → shard dequeue
	inferNS int64 // dequeue → verdict
}

// pushTask is one unit of shard work: push a frame through a session and
// deliver the verdict on reply.
type pushTask struct {
	sess  safemon.Session
	frame *safemon.Frame
	enq   time.Time
	reply chan<- pushResult
	stats *shardStats
	trace *pushTrace
}

// pushResult is the outcome of one pushTask.
type pushResult struct {
	verdict safemon.FrameVerdict
	err     error
}

// shard is one owning goroutine with a bounded mailbox. Every stream is
// pinned to a single shard for its lifetime, so per-session frame order is
// the mailbox FIFO order, while distinct shards run in parallel.
type shard struct {
	mailbox chan pushTask
	stats   shardStats
}

func (sh *shard) run(quit <-chan struct{}, wg *sync.WaitGroup) {
	defer wg.Done()
	for {
		select {
		case t := <-sh.mailbox:
			t.run()
		case <-quit:
			// The manager only closes quit once no submits are in
			// flight, so the mailbox is empty; drain defensively anyway.
			for {
				select {
				case t := <-sh.mailbox:
					t.run()
				default:
					return
				}
			}
		}
	}
}

// run executes the push on the shard goroutine and records its latency
// (queue wait + inference) in the shard histogram.
func (t *pushTask) run() {
	deq := time.Now()
	v, err := t.sess.Push(t.frame)
	end := time.Now()
	t.stats.latency.Observe(end.Sub(t.enq))
	if err == nil {
		t.stats.frames.Add(1)
	}
	if t.trace != nil {
		t.trace.queueNS = deq.Sub(t.enq).Nanoseconds()
		t.trace.inferNS = end.Sub(deq).Nanoseconds()
	}
	t.reply <- pushResult{verdict: v, err: err}
}

// ManagerConfig tunes the sharded session manager.
type ManagerConfig struct {
	// Shards is the number of owning goroutines; <= 0 means 8.
	Shards int
	// MailboxDepth bounds each shard's mailbox; <= 0 means 256.
	MailboxDepth int
	// MaxSessions caps concurrently attached streams; <= 0 means 1024.
	MaxSessions int
	// EnqueueTimeout bounds how long a submit may wait on a full mailbox
	// before failing with ErrQueueFull; <= 0 means 100ms.
	EnqueueTimeout time.Duration
	// MaxIdlePerBackend caps each backend's warm session pool; <= 0
	// means the session cap.
	MaxIdlePerBackend int
	// Metrics receives the manager's per-shard counters and latency
	// histograms (and, under a Server, everything else the service
	// exports at /metrics). Nil mints a private registry. A registry
	// must not be shared between managers: series names would collide.
	Metrics *obs.Registry
}

func (c ManagerConfig) withDefaults() ManagerConfig {
	if c.Shards <= 0 {
		c.Shards = 8
	}
	if c.MailboxDepth <= 0 {
		c.MailboxDepth = 256
	}
	if c.MaxSessions <= 0 {
		c.MaxSessions = 1024
	}
	if c.EnqueueTimeout <= 0 {
		c.EnqueueTimeout = 100 * time.Millisecond
	}
	if c.MaxIdlePerBackend <= 0 {
		c.MaxIdlePerBackend = c.MaxSessions
	}
	if c.Metrics == nil {
		c.Metrics = obs.NewRegistry()
	}
	return c
}

// Manager owns the shards and the per-backend versioned models with their
// warm session pools. Streams attach with Open, push frames with
// Session.Push, and detach with Session.Release; Swap hot-replaces the
// model set under live traffic; Close drains everything.
type Manager struct {
	cfg    ManagerConfig
	shards []*shard

	quit     chan struct{}
	wg       sync.WaitGroup
	inflight sync.WaitGroup
	next     atomic.Uint64 // round-robin shard assignment
	active   atomic.Int64  // attached streams, for the MaxSessions cap

	mu       sync.RWMutex
	models   map[string]*backendModel
	draining bool
}

// NewManager builds and starts the shards over fitted detectors keyed by
// the backend name clients will request, with every model reported as
// version "unversioned". Use NewManagerModels to carry version metadata.
func NewManager(detectors map[string]safemon.Detector, cfg ManagerConfig) (*Manager, error) {
	models := make(map[string]Model, len(detectors))
	for name, det := range detectors {
		models[name] = Model{Detector: det, Version: "unversioned"}
	}
	return NewManagerModels(models, cfg)
}

// NewManagerModels builds and starts the shards over versioned models keyed
// by the backend name clients will request.
func NewManagerModels(models map[string]Model, cfg ManagerConfig) (*Manager, error) {
	if len(models) == 0 {
		return nil, errors.New("serve: no detectors to serve")
	}
	cfg = cfg.withDefaults()
	m := &Manager{
		cfg:    cfg,
		models: map[string]*backendModel{},
		quit:   make(chan struct{}),
	}
	now := time.Now().UTC()
	for name, mod := range models {
		if mod.Detector == nil {
			return nil, fmt.Errorf("serve: nil detector for backend %q", name)
		}
		m.models[name] = &backendModel{
			det:      mod.Detector,
			version:  mod.Version,
			loadedAt: now,
			pool:     safemon.NewSessionPool(mod.Detector, cfg.MaxIdlePerBackend),
		}
	}
	m.shards = make([]*shard, cfg.Shards)
	for i := range m.shards {
		sh := &shard{mailbox: make(chan pushTask, cfg.MailboxDepth)}
		registerShardMetrics(cfg.Metrics, &sh.stats, i)
		m.shards[i] = sh
		m.wg.Add(1)
		go sh.run(m.quit, &m.wg)
	}
	return m, nil
}

// registerShardMetrics binds one shard's counters into the registry:
// the latency histogram is registry-owned (so /metrics renders the very
// bucket array /stats quantiles read), the counters are exported as
// read-functions over the shard's existing atomics.
func registerShardMetrics(reg *obs.Registry, st *shardStats, i int) {
	shard := obs.Label{Key: "shard", Value: strconv.Itoa(i)}
	st.latency = reg.Histogram("safemon_frame_latency_seconds",
		"End-to-end submit-to-verdict frame latency (mailbox wait + inference).", shard)
	reg.CounterFunc("safemon_frames_total",
		"Frames pushed through sessions.", st.frames.Load, shard)
	reg.CounterFunc("safemon_sessions_opened_total",
		"Streams admitted to the shard.", st.sessionsOpened.Load, shard)
	reg.CounterFunc("safemon_sessions_closed_total",
		"Streams released from the shard (opened - closed = active).", st.sessionsClosed.Load, shard)
	reg.CounterFunc("safemon_queue_full_total",
		"Frame submits rejected by mailbox backpressure.", st.queueFull.Load, shard)
}

// Session is one stream attached to the manager: a pooled safemon session
// pinned to a shard.
type Session struct {
	m       *Manager
	sess    safemon.Session
	shard   *shard
	pool    *safemon.SessionPool
	reply   chan pushResult
	version string
	done    bool
	// trace receives the most recent Push's shard-side stage timings;
	// valid after a successful Push until the next one (single-caller,
	// like Push itself).
	trace pushTrace
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
// new model version) and pinning it to a shard. The caller must hold a
// Reserve slot; on success the Session owns it (Release frees it), on
// error the caller keeps it and must Unreserve. groundTruth supplies
// per-frame gesture labels (nil when the backend infers its own context).
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
		sh := m.shards[m.next.Add(1)%uint64(len(m.shards))]
		sh.stats.sessionsOpened.Add(1)
		sh.stats.sessionsActive.Add(1)
		return &Session{
			m:       m,
			sess:    sess,
			shard:   sh,
			pool:    bm.pool,
			reply:   make(chan pushResult, 1),
			version: bm.version,
		}, nil
	}
}

// Push routes one frame through the stream's shard and waits for its
// verdict. When the shard mailbox stays full past the enqueue timeout it
// fails with ErrQueueFull instead of buffering without bound. Push is
// single-caller, like safemon.Session.
func (s *Session) Push(ctx context.Context, frame *safemon.Frame) (safemon.FrameVerdict, error) {
	m := s.m
	m.mu.RLock()
	if m.draining {
		m.mu.RUnlock()
		return safemon.FrameVerdict{}, ErrDraining
	}
	m.inflight.Add(1)
	m.mu.RUnlock()
	defer m.inflight.Done()

	s.trace = pushTrace{}
	t := pushTask{sess: s.sess, frame: frame, enq: time.Now(), reply: s.reply, stats: &s.shard.stats, trace: &s.trace}
	select {
	case s.shard.mailbox <- t:
	default:
		timer := time.NewTimer(m.cfg.EnqueueTimeout)
		select {
		case s.shard.mailbox <- t:
			timer.Stop()
		case <-ctx.Done():
			timer.Stop()
			return safemon.FrameVerdict{}, ctx.Err()
		case <-timer.C:
			s.shard.stats.queueFull.Add(1)
			return safemon.FrameVerdict{}, ErrQueueFull
		}
	}
	// The task is committed: the owning shard will process it, so the
	// reply always arrives (reply is buffered for the cancellation case
	// below, where nobody reads it before the next Push reuses it).
	select {
	case res := <-s.reply:
		return res.verdict, res.err
	case <-ctx.Done():
		// Drain the in-flight reply so the channel is clean for reuse.
		<-s.reply
		return safemon.FrameVerdict{}, ctx.Err()
	}
}

// Release detaches the stream. A healthy session (its last Push returned
// no error) goes back to the warm pool; a failed one is closed. Release is
// idempotent.
func (s *Session) Release(healthy bool) {
	if s.done {
		return
	}
	s.done = true
	s.shard.stats.sessionsActive.Add(-1)
	s.shard.stats.sessionsClosed.Add(1)
	s.m.active.Add(-1)
	if healthy {
		s.pool.Put(s.sess)
	} else {
		s.sess.Close()
	}
	s.sess = nil
}

// Close drains the manager: new Opens and Pushes fail with ErrDraining,
// in-flight pushes complete, then the shard goroutines exit and the warm
// pools are closed.
func (m *Manager) Close() {
	m.mu.Lock()
	if m.draining {
		m.mu.Unlock()
		m.wg.Wait()
		return
	}
	m.draining = true
	models := m.models
	m.mu.Unlock()
	m.inflight.Wait()
	close(m.quit)
	m.wg.Wait()
	for _, bm := range models {
		bm.pool.Close()
	}
}
