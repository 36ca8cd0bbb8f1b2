package serve

// Client side of POST /v1/mux: one binary connection carrying many
// logical sessions. A MuxConn owns the connection — a writer shared by
// all its streams and one reader goroutine demultiplexing server records
// by sid — while each MuxStream keeps the Send/Recv lockstep surface of
// a plain Stream.

import (
	"context"
	"fmt"
	"io"
	"net/http"
	"sync"

	"repro/safemon"
)

// muxEventDepth buffers each stream's demultiplexed server records.
// Lockstep callers keep at most one verdict outstanding per stream; the
// slack covers guard action records and terminal records arriving behind
// them. A stream whose consumer stops draining eventually blocks the
// connection's reader — Recv promptly, as with Stream.
const muxEventDepth = 64

const (
	muxEvVerdict = iota
	muxEvAction
	muxEvDone
	muxEvError
	muxEvOpened
)

// muxEvent is one server record routed to its stream.
type muxEvent struct {
	kind    int
	verdict VerdictMsg
	action  ActionMsg
	frames  int
	errMsg  ErrorMsg
	version string
}

// MuxConn is one multiplexed connection. Open logical sessions with
// Open; streams may be used from different goroutines (each stream from
// one at a time), and Close tears the whole connection down.
type MuxConn struct {
	body io.WriteCloser // request-body pipe
	resp *http.Response

	wmu sync.Mutex // serializes record writes from all streams
	bw  *binWriter

	mu      sync.Mutex
	streams map[uint32]*MuxStream
	nextSID uint32
	readErr error // reader exit cause; connection-level BinError wins

	readDone chan struct{}
}

// OpenMux dials a multiplexed binary connection. A non-200 admission
// answer (503 draining) is returned as *ErrorMsg.
func (c *Client) OpenMux(ctx context.Context) (*MuxConn, error) {
	pr, pw := io.Pipe()
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, c.BaseURL+"/v1/mux", pr)
	if err != nil {
		pw.Close()
		return nil, err
	}
	req.Header.Set("Content-Type", BinaryContentType)
	req.Header.Set("Accept", BinaryContentType)
	resp, err := c.httpClient().Do(req)
	if err != nil {
		pw.Close()
		return nil, err
	}
	if resp.StatusCode != http.StatusOK {
		err := statusError(resp)
		resp.Body.Close()
		pw.Close()
		return nil, err
	}
	m := &MuxConn{
		body:     pw,
		resp:     resp,
		bw:       newBinWriter(pw),
		streams:  map[uint32]*MuxStream{},
		readDone: make(chan struct{}),
	}
	go m.readLoop()
	return m, nil
}

// readLoop demultiplexes server records to their streams until the
// connection dies, then wakes every remaining stream.
func (m *MuxConn) readLoop() {
	br := newBinReader(m.resp.Body)
	var connErr error // sid-0 BinError: the whole connection failed
	for {
		rec, err := br.next()
		if err != nil {
			m.mu.Lock()
			if connErr != nil {
				m.readErr = connErr
			} else {
				m.readErr = err
			}
			for sid, st := range m.streams {
				close(st.ch)
				delete(m.streams, sid)
			}
			m.mu.Unlock()
			close(m.readDone)
			return
		}
		var ev muxEvent
		terminal := false
		switch rec.Type {
		case BinVerdict:
			ev = muxEvent{kind: muxEvVerdict, verdict: rec.Verdict}
		case BinAction:
			ev = muxEvent{kind: muxEvAction, action: rec.Action}
		case BinDone:
			ev = muxEvent{kind: muxEvDone, frames: int(rec.Frames)}
			terminal = true
		case BinError:
			if rec.SID == 0 {
				// Connection-level failure: remember it as the exit cause
				// the server will close on.
				connErr = &ErrorMsg{Code: int(rec.Code), Message: rec.Message}
				continue
			}
			ev = muxEvent{kind: muxEvError, errMsg: ErrorMsg{Code: int(rec.Code), Message: rec.Message}}
			terminal = true
		case BinOpened:
			ev = muxEvent{kind: muxEvOpened, version: rec.Version}
		default:
			continue // unknown server record: ignore for forward compat
		}
		m.mu.Lock()
		st := m.streams[rec.SID]
		if terminal && st != nil {
			// The server says nothing more for this sid: route the record,
			// then stop tracking so stray records cannot block the reader.
			delete(m.streams, rec.SID)
		}
		m.mu.Unlock()
		if st != nil {
			st.ch <- ev
		}
	}
}

// connErr explains a stream channel closed without a terminal record.
func (m *MuxConn) connErr() error {
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.readErr != nil && m.readErr != io.EOF {
		return m.readErr
	}
	return io.ErrUnexpectedEOF
}

// Open starts one logical session against the named backend, optionally
// guarded by a policy, and waits for the server's acknowledgment. A
// rejected open (unknown backend or policy, session cap, draining)
// returns the per-sid *ErrorMsg.
func (m *MuxConn) Open(ctx context.Context, backend, policy string, groundTruth []int) (*MuxStream, error) {
	m.mu.Lock()
	m.nextSID++
	sid := m.nextSID
	st := &MuxStream{sid: sid, conn: m, ch: make(chan muxEvent, muxEventDepth)}
	m.streams[sid] = st
	m.mu.Unlock()

	m.wmu.Lock()
	err := m.bw.emit(&BinaryRecord{Type: BinOpen, SID: sid, Backend: backend, Policy: policy, Labels: groundTruth})
	m.wmu.Unlock()
	if err != nil {
		st.forget()
		return nil, err
	}
	select {
	case ev, ok := <-st.ch:
		if !ok {
			return nil, m.connErr()
		}
		switch ev.kind {
		case muxEvOpened:
			st.version = ev.version
			return st, nil
		case muxEvError:
			e := ev.errMsg
			return nil, &e
		default:
			st.abandon()
			return nil, fmt.Errorf("serve: unexpected record answering open")
		}
	case <-ctx.Done():
		st.abandon()
		return nil, ctx.Err()
	}
}

// Close tears the connection down; every stream on it dies with it.
func (m *MuxConn) Close() error {
	m.body.Close()
	err := m.resp.Body.Close()
	<-m.readDone
	return err
}

// CloseSend half-closes the connection's request side: open streams can
// still drain their queued frames and receive their done records.
func (m *MuxConn) CloseSend() error { return m.body.Close() }

// MuxStream is one logical session on a MuxConn, used like a Stream:
// Send/Recv in lockstep from a single goroutine, CloseSend, then read
// the io.EOF that carries the server's done record.
type MuxStream struct {
	sid     uint32
	conn    *MuxConn
	ch      chan muxEvent
	version string
	actions []ActionMsg
}

// Version is the model version the session bound at open.
func (st *MuxStream) Version() string { return st.version }

// Send writes one frame record for this session.
func (st *MuxStream) Send(frame *safemon.Frame) error {
	st.conn.wmu.Lock()
	defer st.conn.wmu.Unlock()
	return st.conn.bw.writeFrame(st.sid, frame)
}

// CloseSend half-closes the session: the server finishes the queued
// frames and answers with the session's done record.
func (st *MuxStream) CloseSend() error {
	st.conn.wmu.Lock()
	defer st.conn.wmu.Unlock()
	return st.conn.bw.emit(&BinaryRecord{Type: BinClose, SID: st.sid})
}

// Recv reads the session's next verdict; guard action records are
// collected into Actions. io.EOF reports the session's done record,
// *ErrorMsg a per-session server error.
func (st *MuxStream) Recv() (safemon.FrameVerdict, error) {
	for {
		ev, ok := <-st.ch
		if !ok {
			return safemon.FrameVerdict{}, st.conn.connErr()
		}
		switch ev.kind {
		case muxEvVerdict:
			return ev.verdict.Verdict(), nil
		case muxEvAction:
			st.actions = append(st.actions, ev.action)
		case muxEvDone:
			return safemon.FrameVerdict{}, io.EOF
		case muxEvError:
			e := ev.errMsg
			return safemon.FrameVerdict{}, &e
		case muxEvOpened:
			st.version = ev.version
		}
	}
}

// Actions returns the guard action records received so far, in session
// order (same contract as Stream.Actions).
func (st *MuxStream) Actions() []ActionMsg { return st.actions }

// forget stops routing records to the stream (stray records for its sid
// are dropped). Streams that ended via Recv are forgotten automatically.
func (st *MuxStream) forget() {
	st.conn.mu.Lock()
	delete(st.conn.streams, st.sid)
	st.conn.mu.Unlock()
}

// abandon gives up on a stream whose open record already went out: it
// stops routing the sid's records and half-closes it, so a session the
// server admitted ends and frees its slot instead of living until the
// connection does.
func (st *MuxStream) abandon() {
	st.forget()
	st.CloseSend()
}

// StreamTrajectory replays one trajectory through a fresh logical
// session on the connection and returns the verdict sequence plus any
// guard action records — the mux twin of Client.StreamTrajectory.
func (m *MuxConn) StreamTrajectory(ctx context.Context, backend, policy string, traj *safemon.Trajectory) ([]safemon.FrameVerdict, []ActionMsg, error) {
	st, err := m.Open(ctx, backend, policy, trajectoryLabels(traj))
	if err != nil {
		return nil, nil, err
	}
	verdicts, err := lockstep(st, traj.Frames)
	return verdicts, st.Actions(), err
}
