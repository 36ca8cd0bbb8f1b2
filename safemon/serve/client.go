package serve

import (
	"bufio"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/url"
	"strings"

	"repro/safemon"
	"repro/safemon/guard"
	"repro/safemon/ledger"
)

// Client is a minimal safemond client, used by the perfbench harness,
// the golden tests and cmd/experiments. Streams are full duplex: the
// request body is fed through a pipe while verdicts are read off the
// response.
type Client struct {
	// BaseURL is the service root, e.g. "http://127.0.0.1:8080".
	BaseURL string
	// HTTPClient overrides http.DefaultClient (httptest servers pass
	// their own).
	HTTPClient *http.Client
	// Codec selects the wire codec for Open/OpenGuarded streams: ""
	// or "json" for NDJSON (the default), "binary" for the compact
	// record format. OpenMux is always binary.
	Codec string
}

func (c *Client) binary() bool { return c.Codec == "binary" }

func (c *Client) httpClient() *http.Client {
	if c.HTTPClient != nil {
		return c.HTTPClient
	}
	return http.DefaultClient
}

// request sends one body-less request to path and decodes a 200 answer's
// JSON body into out (nil skips the body). Any other status is returned
// as the *ErrorMsg statusError builds.
func (c *Client) request(ctx context.Context, method, path string, out any) error {
	req, err := http.NewRequestWithContext(ctx, method, c.BaseURL+path, nil)
	if err != nil {
		return err
	}
	resp, err := c.httpClient().Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return statusError(resp)
	}
	if out == nil {
		return nil
	}
	return json.NewDecoder(resp.Body).Decode(out)
}

// statusError reports a non-200 answer as *ErrorMsg: its status code and
// the first 512 bytes of its body.
func statusError(resp *http.Response) *ErrorMsg {
	body, _ := io.ReadAll(io.LimitReader(resp.Body, 512))
	return &ErrorMsg{Code: resp.StatusCode, Message: strings.TrimSpace(string(body))}
}

// Backends fetches the server's served backend names.
func (c *Client) Backends(ctx context.Context) ([]string, error) {
	var out struct {
		Backends []string `json:"backends"`
	}
	err := c.request(ctx, http.MethodGet, "/v1/backends", &out)
	return out.Backends, err
}

// Models fetches the model versions the server is currently serving.
func (c *Client) Models(ctx context.Context) ([]ModelInfo, error) {
	var out struct {
		Models []ModelInfo `json:"models"`
	}
	err := c.request(ctx, http.MethodGet, "/v1/models", &out)
	return out.Models, err
}

// Reload asks the server to hot-swap to its loader's current model set and
// returns the model versions now serving.
func (c *Client) Reload(ctx context.Context) ([]ModelInfo, error) {
	var out struct {
		Models []ModelInfo `json:"models"`
	}
	err := c.request(ctx, http.MethodPost, "/v1/models/reload", &out)
	return out.Models, err
}

// Policies fetches the guard mitigation policies the server offers
// (?policy=NAME on Open selects one).
func (c *Client) Policies(ctx context.Context) ([]guard.Policy, error) {
	var out struct {
		Policies []guard.Policy `json:"policies"`
	}
	err := c.request(ctx, http.MethodGet, "/v1/policies", &out)
	return out.Policies, err
}

// Incidents fetches the server's captured incidents, newest first.
// limit > 0 caps the list.
func (c *Client) Incidents(ctx context.Context, limit int) ([]ledger.IncidentSummary, error) {
	path := "/v1/incidents"
	if limit > 0 {
		path += fmt.Sprintf("?limit=%d", limit)
	}
	var out struct {
		Incidents []ledger.IncidentSummary `json:"incidents"`
	}
	err := c.request(ctx, http.MethodGet, path, &out)
	return out.Incidents, err
}

// Incident fetches one incident's recorded trail.
func (c *Client) Incident(ctx context.Context, id string) (*IncidentDetail, error) {
	var out IncidentDetail
	if err := c.request(ctx, http.MethodGet, "/v1/incidents/"+url.PathEscape(id), &out); err != nil {
		return nil, err
	}
	return &out, nil
}

// ResolveIncident acknowledges a captured incident: the server unpins
// its ledger segments so retention may reclaim them. The incident stays
// listable and replayable until compaction actually removes its events.
func (c *Client) ResolveIncident(ctx context.Context, id string) error {
	return c.request(ctx, http.MethodDelete, "/v1/incidents/"+url.PathEscape(id), nil)
}

// ReplayIncident re-runs a captured incident's recorded frames through a
// served backend and guard policy; empty strings select the incident's
// originals. The result carries the fresh verdict/action trail next to
// the recorded one.
func (c *Client) ReplayIncident(ctx context.Context, id, backend, policy string) (*ReplayResult, error) {
	path := "/v1/incidents/" + url.PathEscape(id) + "/replay"
	query := url.Values{}
	if backend != "" {
		query.Set("backend", backend)
	}
	if policy != "" {
		query.Set("policy", policy)
	}
	if len(query) > 0 {
		path += "?" + query.Encode()
	}
	var out ReplayResult
	if err := c.request(ctx, http.MethodPost, path, &out); err != nil {
		return nil, err
	}
	return &out, nil
}

// Stream is one open session on either codec. Use Send/Recv in lockstep
// (one verdict per frame) from a single goroutine, then Close.
type Stream struct {
	body io.WriteCloser // request-body pipe
	resp *http.Response
	// NDJSON codec (nil on binary streams).
	enc *json.Encoder
	dec *json.Decoder
	// Binary codec (nil on NDJSON streams).
	bw      *binWriter
	br      *binReader
	actions []ActionMsg
}

// Open starts a stream against the named backend. groundTruth, when
// non-nil, is sent as the stream's labels header. A non-200 admission
// answer (429 at the session cap, 503 draining) is returned as *ErrorMsg.
func (c *Client) Open(ctx context.Context, backend string, groundTruth []int) (*Stream, error) {
	return c.OpenGuarded(ctx, backend, "", groundTruth)
}

// OpenGuarded is Open with a guard mitigation policy: the server
// interleaves action records into the verdict stream, collected by Recv
// and exposed through Stream.Actions. An unknown policy name is an
// admission failure (*ErrorMsg, 404).
func (c *Client) OpenGuarded(ctx context.Context, backend, policy string, groundTruth []int) (*Stream, error) {
	pr, pw := io.Pipe()
	target := c.BaseURL + "/v1/stream"
	query := url.Values{}
	if backend != "" {
		query.Set("backend", backend)
	}
	if policy != "" {
		query.Set("policy", policy)
	}
	if len(query) > 0 {
		target += "?" + query.Encode()
	}
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, target, pr)
	if err != nil {
		pw.Close()
		return nil, err
	}
	if c.binary() {
		req.Header.Set("Content-Type", BinaryContentType)
		req.Header.Set("Accept", BinaryContentType)
	} else {
		req.Header.Set("Content-Type", "application/x-ndjson")
	}
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
	st := &Stream{body: pw, resp: resp}
	if c.binary() {
		st.bw = newBinWriter(pw)
		st.br = newBinReader(resp.Body)
		if groundTruth != nil {
			if err := st.bw.emit(&BinaryRecord{Type: BinLabels, Labels: groundTruth}); err != nil {
				st.Close()
				return nil, err
			}
		}
		return st, nil
	}
	st.enc = json.NewEncoder(pw)
	st.dec = json.NewDecoder(bufio.NewReader(resp.Body))
	if groundTruth != nil {
		if err := st.enc.Encode(ClientMsg{Labels: groundTruth}); err != nil {
			st.Close()
			return nil, err
		}
	}
	return st, nil
}

// Send writes one frame record. On a warm binary stream this is a
// single buffered write with zero allocations.
func (s *Stream) Send(frame *safemon.Frame) error {
	if s.bw != nil {
		return s.bw.writeFrame(0, frame)
	}
	return s.enc.Encode(ClientMsg{Frame: frame[:]})
}

// Recv reads the next verdict. Guard action records arriving in between
// are collected (see Actions) rather than returned. Terminal records
// surface as errors: io.EOF for a done record, *ErrorMsg for a server
// error.
func (s *Stream) Recv() (safemon.FrameVerdict, error) {
	if s.br != nil {
		return s.recvBinary()
	}
	for {
		var msg ServerMsg
		if err := s.dec.Decode(&msg); err != nil {
			return safemon.FrameVerdict{}, err
		}
		switch {
		case msg.Verdict != nil:
			return msg.Verdict.Verdict(), nil
		case msg.Action != nil:
			s.actions = append(s.actions, *msg.Action)
		case msg.Error != nil:
			return safemon.FrameVerdict{}, msg.Error
		case msg.Done != nil:
			return safemon.FrameVerdict{}, io.EOF
		default:
			return safemon.FrameVerdict{}, fmt.Errorf("serve: empty server record")
		}
	}
}

func (s *Stream) recvBinary() (safemon.FrameVerdict, error) {
	for {
		rec, err := s.br.next()
		if err != nil {
			return safemon.FrameVerdict{}, err
		}
		switch rec.Type {
		case BinVerdict:
			return rec.Verdict.Verdict(), nil
		case BinAction:
			s.actions = append(s.actions, rec.Action)
		case BinError:
			return safemon.FrameVerdict{}, &ErrorMsg{Code: int(rec.Code), Message: rec.Message}
		case BinDone:
			return safemon.FrameVerdict{}, io.EOF
		default:
			return safemon.FrameVerdict{}, fmt.Errorf("serve: unexpected %s record from server", binTypeName(rec.Type))
		}
	}
}

// Actions returns the guard action records received so far, in stream
// order. The server emits an action immediately before the verdict of the
// frame that produced it, so after Recv returns frame i's verdict, every
// action up to and including frame i has been collected.
func (s *Stream) Actions() []ActionMsg { return s.actions }

// CloseSend ends the request side so the server can emit its done record;
// Recv keeps working.
func (s *Stream) CloseSend() error { return s.body.Close() }

// Close tears the stream down.
func (s *Stream) Close() error {
	s.body.Close()
	err := s.resp.Body.Close()
	if s.br != nil {
		s.br.release()
		s.br = nil
	}
	return err
}

// StreamTrajectory replays one trajectory through a fresh stream and
// returns the full verdict sequence. Trajectory gesture labels, when
// fully present, are forwarded — mirroring what Detector.Run does — so the
// served verdicts are comparable to the offline path for every backend.
func (c *Client) StreamTrajectory(ctx context.Context, backend string, traj *safemon.Trajectory) ([]safemon.FrameVerdict, error) {
	st, err := c.Open(ctx, backend, trajectoryLabels(traj))
	if err != nil {
		return nil, err
	}
	defer st.Close()
	return lockstep(st, traj.Frames)
}

// trajectoryLabels returns a trajectory's gesture labels when every
// frame has one, the labels header a replay forwards.
func trajectoryLabels(traj *safemon.Trajectory) []int {
	if len(traj.Gestures) == len(traj.Frames) {
		return traj.Gestures
	}
	return nil
}

// lockstepStream is the Send/Recv surface Stream and MuxStream share.
type lockstepStream interface {
	Send(frame *safemon.Frame) error
	Recv() (safemon.FrameVerdict, error)
	CloseSend() error
}

// lockstep replays frames through an open stream one verdict at a time,
// then half-closes it and requires the server's done record: the loop
// behind Client.StreamTrajectory and MuxConn.StreamTrajectory.
func lockstep(st lockstepStream, frames []safemon.Frame) ([]safemon.FrameVerdict, error) {
	verdicts := make([]safemon.FrameVerdict, 0, len(frames))
	for i := range frames {
		if err := st.Send(&frames[i]); err != nil {
			return nil, fmt.Errorf("serve: send frame %d: %w", i, err)
		}
		v, err := st.Recv()
		if err != nil {
			return nil, fmt.Errorf("serve: frame %d: %w", i, err)
		}
		verdicts = append(verdicts, v)
	}
	if err := st.CloseSend(); err != nil {
		return verdicts, err
	}
	if _, err := st.Recv(); err != io.EOF {
		return verdicts, fmt.Errorf("serve: expected done record, got %v", err)
	}
	return verdicts, nil
}
