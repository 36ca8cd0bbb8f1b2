package serve

// Multiplexed streaming: POST /v1/mux is the one binary transport. It
// carries many logical sessions over one binary-codec connection,
// collapsing the per-stream HTTP overhead of /v1/stream into per-record
// sid routing; a binary client with one robot opens one sid. Every
// record carries a u32 sid; clients open sessions with BinOpen (backend,
// optional policy, optional labels), push BinFrame records, and
// half-close with BinClose, to which the server answers that session's
// BinDone. Failures are per-sid BinError records — backpressure answers
// 429 for the offending session only, never an HTTP status for the whole
// connection — so one connection can cheaply fan a node's worth of
// robots into a safemond.

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
// mutex only interleaves records of different sessions.
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
// a bounded frame channel into the session goroutine, which the reader
// closes to half-close the session, and a cancel that cuts it without
// draining. The reader deletes a session in the branch that closes or
// cuts it, so each session ends once; a second close of in would panic
// the handler.
type muxSession struct {
	sid uint32
	mw  *muxWriter
	in  chan muxFrame
	// ctx is cut by the reader, with the session's ledger end reason as
	// its cause; the goroutine then abandons queued frames and emits
	// nothing further (the reader already emitted the per-sid error, or
	// the whole connection failed).
	ctx context.Context
	cut context.CancelCauseFunc
	// failed is set by the session goroutine when its stream died (push
	// or prepare error) and it ended the session; the reader then forgets
	// the session and its queue, at the sid's next frame or at the
	// connection's next open.
	failed atomic.Bool
}

// verdict, done and fail make the session the pump's sink: its records
// under its sid on the connection's shared writer. The binary verdict
// record carries every score exactly, so verdict never ends the stream.
func (ms *muxSession) verdict(a *ActionMsg, v *VerdictMsg) bool {
	ms.mw.verdict(ms.sid, a, v)
	return true
}
func (ms *muxSession) done(frames int) { ms.mw.done(ms.sid, frames) }

// fail marks the stream dead before its error record goes out, so the
// reader drops every frame the client sends after seeing it.
func (ms *muxSession) fail(e *ErrorMsg) {
	ms.failed.Store(true)
	ms.mw.error(ms.sid, e)
}

// offer routes one frame without waiting; false means the session's
// queue is full, so its goroutine cannot keep up (per-sid 429). The
// connection reader serves every sid, so it never blocks on one.
func (ms *muxSession) offer(f *safemon.Frame, decNS int64) bool {
	select {
	case ms.in <- muxFrame{frame: *f, decNS: decNS}:
		return true
	default:
		return false
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
	armIdle := func() { rc.SetReadDeadline(time.Now().Add(s.cfg.StreamIdleTimeout)) }

	sessions := map[uint32]*muxSession{}
	var wg sync.WaitGroup
	clean := false
	defer func() {
		// Connection over. On a clean end (request side closed at a record
		// boundary) the remaining sessions half-close: queued frames still
		// process and each session gets its done record. On a failed
		// connection they are cut instead — a done record after a fatal
		// error would misreport the streams as complete.
		for _, ms := range sessions {
			if clean {
				close(ms.in)
			} else {
				ms.cut(errors.New("error: connection failure"))
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
					ms.cut(errors.New("error: bad record"))
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
				delete(sessions, rec.SID) // unknown or failed sid: drop the frame
				continue
			}
			if !ms.offer(&rec.Frame, dec.decNS) {
				s.codec.muxQueueFull.Add(1)
				mw.error(rec.SID, &ErrorMsg{Code: http.StatusTooManyRequests, Message: ErrQueueFull.Error()})
				ms.cut(errors.New("error: queue full"))
				delete(sessions, rec.SID)
			}
		case BinClose:
			if ms := sessions[rec.SID]; ms != nil {
				close(ms.in)
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
	// Failed sessions have ended: forget them, so their queues go and
	// their sids can be opened again.
	for fsid, ms := range sessions {
		if ms.failed.Load() {
			delete(sessions, fsid)
		}
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
	ms := &muxSession{sid: sid, mw: mw, in: make(chan muxFrame, muxInDepth)}
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
	// The cut context derives from Background, not from the request: a
	// cancelled request ends its sessions through the reader, as a
	// connection failure, and a session ended by a close, never cut,
	// holds nothing.
	ms.ctx, ms.cut = context.WithCancelCause(context.Background())
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
// the connection reader, each carried by the pump on the request's
// context, so a cut mid-step still writes that frame's verdict.
func runMuxSession(ctx context.Context, ms *muxSession, p *pump) {
	defer p.close()
	cut := ms.ctx.Done()
	for {
		// A cut wins over queued frames: a 429-cut session must stop
		// promptly, not finish its backlog.
		select {
		case <-cut:
			p.end(context.Cause(ms.ctx).Error())
			return
		default:
		}
		select {
		case <-cut: // the check above ends the session
		case mf, ok := <-ms.in:
			if !ok {
				p.end("eof")
				ms.done(p.frames)
				return
			}
			if !p.step(ctx, &mf.frame, mf.decNS) {
				return
			}
		}
	}
}
