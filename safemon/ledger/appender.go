package ledger

import (
	"sync"
	"sync/atomic"
	"time"
)

// Options tunes an Appender. The zero value selects the documented
// defaults.
type Options struct {
	// Queue bounds the emit queue in events; <= 0 means 4096. When the
	// queue is full Emit drops the event and counts it — it never blocks
	// the hot path.
	Queue int
	// Batch caps how many events one store Append call carries; <= 0
	// means 256.
	Batch int
	// FlushEvery is the idle flush interval of the writer goroutine;
	// <= 0 means 200 ms.
	FlushEvery time.Duration
}

func (o Options) withDefaults() Options {
	if o.Queue <= 0 {
		o.Queue = 4096
	}
	if o.Batch <= 0 {
		o.Batch = 256
	}
	if o.FlushEvery <= 0 {
		o.FlushEvery = 200 * time.Millisecond
	}
	return o
}

// Snapshot is the appender's observability counters; the serve layer
// exports them as its /metrics ledger families.
type Snapshot struct {
	// Queue and QueueCap are the current emit-queue depth and bound.
	Queue    int `json:"queue"`
	QueueCap int `json:"queue_cap"`
	// Appended counts events durably handed to the store; Batches counts
	// the store Append calls that carried them.
	Appended uint64 `json:"appended"`
	Batches  uint64 `json:"batches"`
	// Dropped counts events lost to a full queue or an unencodable
	// payload; Errors counts store Append failures (each failure drops
	// the whole batch).
	Dropped uint64 `json:"dropped"`
	Errors  uint64 `json:"errors"`
	// Bytes is the store's current footprint; Segments and ActiveSegment
	// describe the disk layout (zero/empty for memory stores).
	Bytes         int64  `json:"bytes"`
	Segments      int    `json:"segments,omitempty"`
	ActiveSegment string `json:"active_segment,omitempty"`
	// LastSeq is the highest sequence number assigned so far.
	LastSeq uint64 `json:"last_seq"`
}

// Appender is the async batched writer between the streaming hot path
// and a Store. Emit copies the event into a bounded queue and returns
// immediately — zero allocations, never blocking on the store — while a
// single writer goroutine assigns sequence numbers, batches events, and
// appends them. Backpressure is expressed as explicit drops, not stalls.
type Appender struct {
	store Store
	opts  Options

	queue chan Event
	quit  chan struct{}
	done  chan struct{}
	flush chan chan struct{}

	seq     atomic.Uint64 // last assigned sequence number
	session atomic.Uint64 // last assigned session ID
	dropped atomic.Uint64
	errs    atomic.Uint64
	batches atomic.Uint64
	writes  atomic.Uint64

	closeOnce sync.Once
	closeErr  error
}

// NewAppender starts an appender over store. The appender owns the
// store: Close drains the queue, syncs, and closes it. Sequence numbers
// continue from the store's last retained event and session IDs from its
// largest seen session, so both stay unique across restarts.
func NewAppender(store Store, opts Options) *Appender {
	opts = opts.withDefaults()
	a := &Appender{
		store: store,
		opts:  opts,
		queue: make(chan Event, opts.Queue),
		quit:  make(chan struct{}),
		done:  make(chan struct{}),
		flush: make(chan chan struct{}),
	}
	_, last := store.Bounds()
	a.seq.Store(last)
	a.session.Store(store.MaxSession())
	go a.run()
	return a
}

// NextSession allocates a fresh store-unique session ID.
func (a *Appender) NextSession() uint64 { return a.session.Add(1) }

// Emit enqueues one event without blocking: if the queue is full or the
// event exceeds the codec's caps, it is dropped and counted. The event
// is copied; e remains owned by the caller. Safe for concurrent use and
// allocation-free (the nil receiver is a no-op, so call sites need no
// ledger-enabled branch).
func (a *Appender) Emit(e *Event) {
	if a == nil {
		return
	}
	if !encodable(e) {
		a.dropped.Add(1)
		return
	}
	select {
	case a.queue <- *e:
	default:
		a.dropped.Add(1)
	}
}

// run is the writer goroutine: dequeue, stamp sequence numbers, batch,
// append.
func (a *Appender) run() {
	defer close(a.done)
	ticker := time.NewTicker(a.opts.FlushEvery)
	defer ticker.Stop()
	batch := make([]Event, 0, a.opts.Batch)
	for {
		select {
		case e := <-a.queue:
			batch = a.gather(append(batch, e))
		case <-ticker.C:
			batch = a.write(batch)
		case ack := <-a.flush:
			batch = a.write(a.drain(batch))
			if err := a.store.Sync(); err != nil {
				// Flush is the drain-time durability barrier; a failed
				// fsync must show up in the error count, not vanish.
				a.errs.Add(1)
			}
			close(ack)
		case <-a.quit:
			batch = a.write(a.drain(batch))
			return
		}
	}
}

// gather pulls whatever else is already queued (up to the batch cap) and
// writes once the batch is full.
func (a *Appender) gather(batch []Event) []Event {
	for len(batch) < a.opts.Batch {
		select {
		case e := <-a.queue:
			batch = append(batch, e)
		default:
			return a.write(batch)
		}
	}
	return a.write(batch)
}

// drain empties the queue completely, writing full batches as it goes.
func (a *Appender) drain(batch []Event) []Event {
	for {
		select {
		case e := <-a.queue:
			batch = append(batch, e)
			if len(batch) >= a.opts.Batch {
				batch = a.write(batch)
			}
		default:
			return batch
		}
	}
}

// write stamps sequence numbers and appends the batch, returning the
// reset slice.
func (a *Appender) write(batch []Event) []Event {
	if len(batch) == 0 {
		return batch
	}
	seq := a.seq.Load()
	for i := range batch {
		seq++
		batch[i].Seq = seq
	}
	a.seq.Store(seq)
	if err := a.store.Append(batch); err != nil {
		a.errs.Add(1)
		a.dropped.Add(uint64(len(batch)))
	} else {
		a.writes.Add(uint64(len(batch)))
		a.batches.Add(1)
	}
	return batch[:0]
}

// Flush blocks until every event emitted before the call is handed to
// the store and the store is synced. It is a no-op after Close.
func (a *Appender) Flush() {
	if a == nil {
		return
	}
	ack := make(chan struct{})
	select {
	case a.flush <- ack:
		<-ack
	case <-a.done:
	}
}

// Close drains the queue, syncs, and closes the store. Emit remains safe
// to call afterwards (events are counted as dropped once the queue
// fills; the queue channel is never closed).
func (a *Appender) Close() error {
	if a == nil {
		return nil
	}
	a.closeOnce.Do(func() {
		close(a.quit)
		<-a.done
		if err := a.store.Sync(); err != nil {
			a.closeErr = err
		}
		if err := a.store.Close(); err != nil && a.closeErr == nil {
			a.closeErr = err
		}
	})
	return a.closeErr
}

// Store exposes the underlying store for scans (incident listing and
// replay read through it while the appender keeps writing).
func (a *Appender) Store() Store {
	if a == nil {
		return nil
	}
	return a.store
}

// Stats snapshots the appender's counters.
func (a *Appender) Stats() Snapshot {
	if a == nil {
		return Snapshot{}
	}
	s := Snapshot{
		Queue:    len(a.queue),
		QueueCap: cap(a.queue),
		Appended: a.writes.Load(),
		Batches:  a.batches.Load(),
		Dropped:  a.dropped.Load(),
		Errors:   a.errs.Load(),
		Bytes:    a.store.SizeBytes(),
		LastSeq:  a.seq.Load(),
	}
	if d, ok := a.store.(*DiskStore); ok {
		s.Segments, s.ActiveSegment = d.Segments()
	}
	return s
}
