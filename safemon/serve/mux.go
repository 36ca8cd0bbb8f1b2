package serve

// Multiplexed streaming: POST /v1/mux carries many logical sessions over
// one binary-codec connection, collapsing the per-stream HTTP and
// goroutine overhead of /v1/stream into per-record sid routing. Every
// record carries a u32 sid; clients open sessions with BinOpen (backend,
// optional policy, optional labels), push BinFrame records, and
// half-close with BinClose, to which the server answers that session's
// BinDone. Failures are per-sid BinError records — backpressure answers
// 429 for the offending session only, never an HTTP status for the whole
// connection — so one connection can cheaply fan a node's worth of
// streams into a safemond, the transport ROADMAP item 1's gateway tier
// needs.

import (
	"context"
	"errors"
	"io"
	"net/http"
	"sync"
	"sync/atomic"
	"time"

	"repro/safemon"
)

// muxInDepth bounds each logical session's routing channel: enough to
// ride out scheduling jitter between the connection reader and the
// session goroutine, small enough that backpressure surfaces as a per-sid
// 429 instead of unbounded buffering.
const muxInDepth = 64

// muxWriter serializes binary record writes from the per-session
// goroutines onto the shared response. Per-sid record order is preserved
// because each session writes its own records from one goroutine; the
// mutex only interleaves records of different sessions. A binary
// /v1/stream connection is its single sid-0 user.
type muxWriter struct {
	mu    sync.Mutex
	w     *binWriter
	flush func()
}

func (m *muxWriter) emit(rec *BinaryRecord) {
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.w.emit(rec) != nil {
		return
	}
	m.flush()
}

// verdict writes a frame's guard action edge, when a is non-nil, and
// then its verdict under one lock acquisition and one flush, so no other
// session's record lands between them.
func (m *muxWriter) verdict(sid uint32, a *ActionMsg, v *VerdictMsg) {
	m.mu.Lock()
	defer m.mu.Unlock()
	if a != nil && m.w.emit(&BinaryRecord{Type: BinAction, SID: sid, Action: *a}) != nil {
		return
	}
	if m.w.writeVerdict(sid, v) != nil {
		return
	}
	m.flush()
}

func (m *muxWriter) done(sid uint32, frames int) {
	m.emit(&BinaryRecord{Type: BinDone, SID: sid, Frames: uint64(frames)})
}

func (m *muxWriter) error(sid uint32, e *ErrorMsg) {
	m.emit(&BinaryRecord{Type: BinError, SID: sid, Code: uint32(e.Code), Message: e.Message})
}

// muxFrame is one routed frame plus its decode-parse time (measured by
// the connection reader, attributed to the frame's decode stage by the
// session goroutine).
type muxFrame struct {
	frame safemon.Frame
	decNS int64
}

// muxSession is the connection reader's handle on one logical session:
// a bounded frame channel into the session goroutine plus the kill
// switch for per-sid backpressure cuts.
type muxSession struct {
	sid  uint32
	mw   *muxWriter
	in   chan muxFrame
	quit chan struct{} // closed by kill: abandon queued frames and exit
	// reason is the ledger end-reason for a killed session; written
	// before quit closes, read after it fires.
	reason string
	// failed is set by the session goroutine when its stream died (push
	// error); the reader then drops further frames for the sid.
	failed atomic.Bool
	killed bool // reader-side: kill() called
	closed bool // reader-side: in closed
}

// verdict, done and fail make the session the pump's sink: its records
// under its sid on the connection's shared writer.
func (ms *muxSession) verdict(a *ActionMsg, v *VerdictMsg) { ms.mw.verdict(ms.sid, a, v) }
func (ms *muxSession) done(frames int)                     { ms.mw.done(ms.sid, frames) }

// fail marks the stream dead before its error record goes out, so the
// reader drops every frame the client sends after seeing it.
func (ms *muxSession) fail(e *ErrorMsg) {
	ms.failed.Store(true)
	ms.mw.error(ms.sid, e)
}

// offer routes one frame, waiting up to timeout when the channel is
// full; false means the session goroutine cannot keep up (per-sid 429).
func (ms *muxSession) offer(f *safemon.Frame, decNS int64, timeout time.Duration) bool {
	mf := muxFrame{frame: *f, decNS: decNS}
	select {
	case ms.in <- mf:
		return true
	default:
	}
	t := time.NewTimer(timeout)
	defer t.Stop()
	select {
	case ms.in <- mf:
		return true
	case <-t.C:
		return false
	}
}

// closeInput half-closes the session: queued frames still process, then
// the goroutine emits its done record. Idempotent, reader-side only.
func (ms *muxSession) closeInput() {
	if !ms.closed && !ms.killed {
		ms.closed = true
		close(ms.in)
	}
}

// kill cuts the session without draining: the goroutine abandons queued
// frames and emits nothing further (the reader already emitted the
// per-sid error, or the whole connection failed). Reader-side only.
func (ms *muxSession) kill(reason string) {
	if !ms.killed {
		ms.killed = true
		ms.reason = reason
		close(ms.quit)
	}
}

// handleMux is the multiplexed binary endpoint. Admission errors are
// HTTP statuses for the connection; everything after the 200 — unknown
// backends, session caps, backpressure, malformed payloads — is a
// per-sid BinError record, so one bad session never costs the others
// their transport.
func (s *Server) handleMux(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Connection", "close")
	if r.Method != http.MethodPost {
		http.Error(w, "POST only", http.StatusMethodNotAllowed)
		return
	}
	if !hasMediaType(r.Header.Get("Content-Type"), BinaryContentType) {
		http.Error(w, "mux requires Content-Type: "+BinaryContentType, http.StatusUnsupportedMediaType)
		return
	}
	if s.isDraining() {
		http.Error(w, "draining", http.StatusServiceUnavailable)
		return
	}
	rc := http.NewResponseController(w)
	if err := rc.EnableFullDuplex(); err != nil && r.ProtoMajor < 2 {
		http.Error(w, "streaming unsupported", http.StatusHTTPVersionNotSupported)
		return
	}
	w.Header().Set("Content-Type", BinaryContentType)
	w.WriteHeader(http.StatusOK)
	rc.Flush()
	s.codec.muxConns.Add(1)

	mw := &muxWriter{w: newBinWriter(w), flush: func() { rc.Flush() }}
	dec := newBinReader(r.Body)
	defer dec.release()
	armIdle := func() { rc.SetReadDeadline(time.Now().Add(s.cfg.StreamIdleTimeout)) }

	sessions := map[uint32]*muxSession{}
	var wg sync.WaitGroup
	clean := false
	defer func() {
		// Connection over. On a clean end (request side closed at a record
		// boundary) the remaining sessions half-close: queued frames still
		// process and each session gets its done record. On a failed
		// connection they are killed instead — a done record after a fatal
		// error would misreport the streams as complete.
		for _, ms := range sessions {
			if clean {
				ms.closeInput()
			} else {
				ms.kill("error: connection failure")
			}
		}
		wg.Wait()
	}()

	// fatal reports a connection-level error and linger-drains a bounded
	// slice of the request body: closing with unread received data can
	// RST the in-flight error record away before the client reads it.
	fatal := func(sid uint32, e *ErrorMsg) {
		mw.error(sid, e)
		rc.SetReadDeadline(time.Now().Add(500 * time.Millisecond))
		io.Copy(io.Discard, io.LimitReader(r.Body, 64<<10))
	}

	for {
		armIdle()
		rec, err := dec.next()
		if err != nil {
			switch {
			case errors.Is(err, io.EOF):
				clean = true
				return // clean end at a record boundary
			case errors.Is(err, errBadPayload):
				// The record framed correctly but its payload is invalid
				// (non-finite frame, ragged struct): fail just that sid
				// and keep the connection.
				sid := dec.lastSID
				mw.error(sid, &ErrorMsg{Code: http.StatusBadRequest, Message: "bad record: " + err.Error()})
				if ms := sessions[sid]; ms != nil {
					ms.kill("error: bad record")
					delete(sessions, sid)
				}
				continue
			default:
				// Broken framing: the byte stream cannot continue.
				fatal(0, &ErrorMsg{Code: http.StatusBadRequest, Message: "bad record: " + err.Error()})
				return
			}
		}
		switch rec.Type {
		case BinOpen:
			s.muxOpen(r.Context(), mw, sessions, &wg, rec)
		case BinFrame:
			ms := sessions[rec.SID]
			if ms == nil || ms.failed.Load() {
				continue // unknown or already-failed sid: drop
			}
			if !ms.offer(&rec.Frame, dec.decNS, s.manager.cfg.EnqueueTimeout) {
				s.codec.muxQueueFull.Add(1)
				mw.error(rec.SID, &ErrorMsg{Code: http.StatusTooManyRequests, Message: ErrQueueFull.Error()})
				ms.kill("error: queue full")
				delete(sessions, rec.SID)
			}
		case BinClose:
			if ms := sessions[rec.SID]; ms != nil {
				ms.closeInput()
				delete(sessions, rec.SID)
			}
		default:
			fatal(rec.SID, &ErrorMsg{Code: http.StatusBadRequest,
				Message: "unexpected " + binTypeName(rec.Type) + " record on a mux connection"})
			return
		}
	}
}

// muxOpen admits one logical session through the same admission as
// /v1/stream, answering failures with per-sid records instead of HTTP
// statuses, and starts the session's goroutine.
func (s *Server) muxOpen(ctx context.Context, mw *muxWriter, sessions map[uint32]*muxSession, wg *sync.WaitGroup, rec *BinaryRecord) {
	sid := rec.SID
	if sid == 0 {
		mw.error(0, &ErrorMsg{Code: http.StatusBadRequest, Message: "open needs a nonzero sid"})
		return
	}
	if _, dup := sessions[sid]; dup {
		mw.error(sid, &ErrorMsg{Code: http.StatusBadRequest, Message: "sid already open"})
		return
	}
	// Copied out of the decoder's reused record; zero labels means an
	// unlabeled stream (the open payload cannot distinguish nil from
	// empty, and neither can a backend).
	var labels []int
	if len(rec.Labels) > 0 {
		labels = append([]int{}, rec.Labels...)
	}
	ms := &muxSession{sid: sid, mw: mw, in: make(chan muxFrame, muxInDepth), quit: make(chan struct{})}
	// Per-sid admission control: the session cap answers with a 429
	// record for this sid, leaving the connection's other sessions alone.
	p, em := s.admit(rec.Backend, rec.Policy)
	if em == nil {
		if em = p.open(labels, "binary-mux", ms); em != nil {
			p.close()
		}
	}
	if em != nil {
		mw.error(sid, em)
		return
	}
	s.codec.muxSessions.Add(1)
	sessions[sid] = ms
	mw.emit(&BinaryRecord{Type: BinOpened, SID: sid, Version: p.sess.Version()})
	wg.Add(1)
	go func() {
		defer wg.Done()
		runMuxSession(ctx, ms, p)
	}()
}

// runMuxSession is one logical session's record loop: frames in from
// the connection reader, each carried by the pump.
func runMuxSession(ctx context.Context, ms *muxSession, p *pump) {
	defer p.close()
	for {
		// Kill wins over queued frames: a 429-cut session must stop
		// promptly, not finish its backlog.
		select {
		case <-ms.quit:
			p.end(ms.reason, false)
			return
		default:
		}
		select {
		case <-ms.quit:
			p.end(ms.reason, false)
			return
		case mf, ok := <-ms.in:
			if !ok {
				p.end("eof", true)
				ms.done(p.frames)
				return
			}
			if !p.step(ctx, &mf.frame, mf.decNS) {
				return
			}
		}
	}
}
