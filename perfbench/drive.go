package main

import (
	"context"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"sync"
	"time"

	"repro/safemon"
	"repro/safemon/serve"
)

// stream is the client surface shared by serve.Stream (NDJSON) and
// serve.MuxStream (binary mux).
type stream interface {
	Send(*safemon.Frame) error
	Recv() (safemon.FrameVerdict, error)
	CloseSend() error
	Actions() []serve.ActionMsg
}

// opener starts one session for a trajectory and returns the stream plus
// the function that releases it.
type opener func(ctx context.Context, tr *safemon.Trajectory) (stream, func(), error)

// plan is one session's schedule, drawn from the workload seed: the cycle
// of replay trajectories, the frames of the first one streamed before the
// schedule starts (so replays end at staggered times), and the phase of
// its first scheduled frame.
type plan struct {
	order []int
	skip  int
	phase int64
}

func makePlans(w workload, c *corpus, seed int64) []plan {
	rng := rand.New(rand.NewSource(seed))
	n := len(c.replays)
	perm := rng.Perm(n)
	plans := make([]plan, w.sessions)
	// Sessions starting on the same trajectory spread their pre-rolled
	// offsets evenly, and the last of them starts within the final tenth
	// of its band, so every trajectory completes a replay early on.
	starts := make([]int, n)
	for i := range plans {
		starts[perm[i%n]]++
	}
	rank := make([]int, n)
	period := periodNS(w)
	// Phases sit in evenly spaced slots, dealt to sessions by the seed,
	// so frames arrive at a steady rate rather than in seed-dependent
	// bursts.
	slots := rng.Perm(w.sessions)
	for i := range plans {
		p := &plans[i]
		for k := 0; k < n; k++ {
			p.order = append(p.order, perm[(i+k)%n])
		}
		if w.hz == 0 {
			continue
		}
		first := p.order[0]
		frames := len(c.replays[first].Frames)
		frac := (float64(rank[first]) + 1 - 0.1*rng.Float64()) / float64(starts[first])
		rank[first]++
		p.skip = int(frac * float64(frames))
		if p.skip >= frames {
			p.skip = frames - 1
		}
		p.phase = int64((float64(slots[i]) + 0.1*rng.Float64()) / float64(w.sessions) * float64(period))
	}
	return plans
}

func periodNS(w workload) int64 {
	if w.hz == 0 {
		return 0
	}
	return int64(float64(time.Second) / w.hz)
}

// Span kinds of the traced run.
const (
	spanFrame = iota
	spanSend
	spanRecvWait
	spanOpen
	numSpanKinds
)

var spanNames = [numSpanKinds]string{"frame", "client.send", "client.recv_wait", "client.open"}

// spanCap bounds the spans one session keeps for the dump; past it, spans
// are still timed and summed but not stored.
const spanCap = 30000

// span is one traced interval. Spans of one frame share trace; parent is
// the enclosing span's id (0 for roots).
type span struct {
	trace, id, parent uint64
	kind              uint8
	start, end        int64
}

// replay is one session's pass over one trajectory. Verdicts are checked
// against the reference as they arrive; they are kept only until some
// replay of the trajectory has completed, for the quality evaluation.
type replay struct {
	traj       int
	frames     int
	mismatched int
	verdicts   []safemon.FrameVerdict
	complete   bool
	trailBad   bool
}

// sessionLog is everything one session goroutine recorded; only that
// goroutine writes it until the driver's WaitGroup returns.
type sessionLog struct {
	// measured counts the frames that arrived inside the measured window;
	// stalled those the previous verdict delayed past their due time.
	measured, stalled int
	// half sums latency (µs) over the untraced [0] and traced [1] halves.
	halfSum [2]float64
	halfN   [2]int
	// spanSum and spanN total every traced span by kind; spans keeps the
	// first spanCap for the dump.
	spanSum   [numSpanKinds]float64
	spanN     [numSpanKinds]int
	spans     []span
	nextSpan  uint64
	replays   []*replay
	attempted int
	failed    int
	errs      []string
}

func (l *sessionLog) fail(err error) {
	l.failed++
	if len(l.errs) < 3 {
		l.errs = append(l.errs, err.Error())
	}
}

// trace records one span under trace id tr (0 starts a new trace) and
// returns its id.
func (l *sessionLog) trace(tr, parent uint64, kind uint8, start, end int64) uint64 {
	l.nextSpan++
	id := l.nextSpan
	if tr == 0 {
		tr = id
	}
	l.spanSum[kind] += float64(end-start) / 1e3
	l.spanN[kind]++
	if len(l.spans) < spanCap {
		l.spans = append(l.spans, span{trace: tr, id: id, parent: parent, kind: kind, start: start, end: end})
	}
	return id
}

// driver runs one workload's sessions against the service.
type driver struct {
	w      workload
	c      *corpus
	ref    *reference
	open   opener
	plans  []plan
	period int64
	epoch  time.Time

	// t0 is the first scheduled due time; from..stop the measured window
	// (measure long); tracedFrom the instant from which frames are traced
	// (-1 when tracing is off). Written before start is closed.
	t0, from, stop, measure, tracedFrom int64

	prerolled sync.WaitGroup
	start     chan struct{}
	logs      []*sessionLog
	// lat holds the measured frames' latencies by window of arrival, lag
	// the generator's lateness; every session adds to them.
	lat [windows]hist
	lag hist

	mu    sync.Mutex
	first []*replay // each trajectory's first complete replay
}

func (d *driver) now() int64 { return int64(time.Since(d.epoch)) }

func (d *driver) sleepUntil(t int64) {
	if dt := t - d.now(); dt > 0 {
		time.Sleep(time.Duration(dt))
	}
}

func (d *driver) captured(traj int) bool {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.first[traj] != nil
}

func (d *driver) capture(r *replay) {
	d.mu.Lock()
	defer d.mu.Unlock()
	if d.first[r.traj] == nil {
		d.first[r.traj] = r
	}
}

// newOpener dials the workload's transport. The returned close function
// tears the transport down.
func newOpener(ctx context.Context, w workload, base string) (opener, func(), error) {
	tr := &http.Transport{MaxIdleConnsPerHost: w.sessions}
	client := &serve.Client{BaseURL: base, HTTPClient: &http.Client{Transport: tr}}
	policy := ""
	if w.guarded {
		policy = stopFast().Name
	}
	if !w.mux {
		open := func(ctx context.Context, traj *safemon.Trajectory) (stream, func(), error) {
			st, err := client.OpenGuarded(ctx, w.backend, policy, labelsOf(traj))
			if err != nil {
				return nil, nil, err
			}
			return st, func() { st.Close() }, nil
		}
		return open, tr.CloseIdleConnections, nil
	}
	mc, err := client.OpenMux(ctx)
	if err != nil {
		tr.CloseIdleConnections()
		return nil, nil, err
	}
	open := func(ctx context.Context, traj *safemon.Trajectory) (stream, func(), error) {
		st, err := mc.Open(ctx, w.backend, policy, labelsOf(traj))
		if err != nil {
			return nil, nil, err
		}
		return st, func() {}, nil
	}
	closeAll := func() {
		mc.CloseSend()
		mc.Close()
		tr.CloseIdleConnections()
	}
	return open, closeAll, nil
}

// run pre-rolls every session, then streams the schedule from warmup
// before the measured window until its end. onStart runs once all
// sessions are pre-rolled, with the window fixed, before any scheduled
// frame.
func (d *driver) run(ctx context.Context, warmup, measure time.Duration, traceFrom float64, onStart func()) {
	d.start = make(chan struct{})
	d.logs = make([]*sessionLog, d.w.sessions)
	d.first = make([]*replay, len(d.c.replays))
	var wg sync.WaitGroup
	for i := range d.plans {
		d.logs[i] = &sessionLog{nextSpan: uint64(i+1) << 40}
		d.prerolled.Add(1)
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			d.session(ctx, i, d.logs[i])
		}(i)
	}
	d.prerolled.Wait()
	d.t0 = d.now() + int64(20*time.Millisecond)
	d.from = d.t0 + int64(warmup)
	d.measure = int64(measure)
	d.stop = d.from + d.measure
	d.tracedFrom = -1
	if traceFrom >= 0 {
		d.tracedFrom = d.from + int64(traceFrom*float64(measure))
	}
	onStart()
	close(d.start)
	wg.Wait()
}

// session is one robot: it replays its trajectory cycle, one frame at a
// time, waiting for each verdict before the next frame is due.
func (d *driver) session(ctx context.Context, i int, l *sessionLog) {
	p := d.plans[i]
	next := 0
	var (
		cur     *replay
		st      stream
		release func()
	)
	openNext := func() error {
		traj := p.order[next%len(p.order)]
		next++
		t := d.now()
		s, rel, err := d.open(ctx, d.c.replays[traj])
		if err != nil {
			return err
		}
		if d.traced(t) {
			l.trace(0, 0, spanOpen, t, d.now())
		}
		st, release = s, rel
		cur = &replay{traj: traj}
		if !d.captured(traj) {
			cur.verdicts = make([]safemon.FrameVerdict, 0, len(d.c.replays[traj].Frames))
		}
		l.replays = append(l.replays, cur)
		return nil
	}
	finish := func() {
		if st == nil {
			return
		}
		err := st.CloseSend()
		if err == nil {
			if _, err = st.Recv(); errors.Is(err, io.EOF) {
				err = nil
			} else if err == nil {
				err = fmt.Errorf("verdict after close")
			}
		}
		if err != nil {
			l.fail(fmt.Errorf("close replay: %w", err))
		}
		if d.w.guarded {
			cur.trailBad = !trailMatches(cur.frames, st.Actions(), d.ref.trails[cur.traj])
		}
		cur.complete = err == nil && cur.frames == len(d.c.replays[cur.traj].Frames)
		if cur.complete && cur.verdicts != nil {
			d.capture(cur)
		}
		release()
		st = nil
	}
	// push sends the replay's next frame and waits for its verdict, which
	// it checks against the reference.
	push := func() (sendStart, sendEnd int64, err error) {
		frames := d.c.replays[cur.traj].Frames
		l.attempted++
		sendStart = d.now()
		if err = st.Send(&frames[cur.frames]); err == nil {
			sendEnd = d.now()
			var v safemon.FrameVerdict
			if v, err = st.Recv(); err == nil {
				if ref := d.ref.verdicts[cur.traj]; cur.frames >= len(ref) || v != ref[cur.frames] {
					cur.mismatched++
				}
				if cur.verdicts != nil {
					cur.verdicts = append(cur.verdicts, v)
				}
				cur.frames++
				return sendStart, sendEnd, nil
			}
		}
		l.fail(err)
		release()
		st = nil
		return sendStart, sendEnd, err
	}

	if err := openNext(); err != nil {
		l.fail(err)
	}
	for st != nil && cur.frames < p.skip {
		if _, _, err := push(); err != nil {
			break
		}
	}
	d.prerolled.Done()
	<-d.start

	prevRecv := int64(-1)
	for n := int64(0); ; n++ {
		due := d.t0 + p.phase + n*d.period
		if d.period == 0 {
			due = d.now()
		}
		if due >= d.stop {
			break
		}
		if st != nil && cur.frames == len(d.c.replays[cur.traj].Frames) {
			finish()
		}
		if st == nil {
			if err := openNext(); err != nil {
				l.fail(err)
				l.attempted++
				continue
			}
		}
		d.sleepUntil(due)
		sendStart, sendEnd, err := push()
		if err != nil {
			continue
		}
		recv := d.now()
		start, lag, stalled := sendStart, sendStart-due, false
		if prevRecv > due {
			start, lag, stalled = due, sendStart-prevRecv, true
		}
		prevRecv = recv
		traced := d.traced(due)
		l.record(d, start, recv, lag, stalled, traced)
		if traced {
			root := l.trace(0, 0, spanFrame, start, recv)
			l.trace(root, root, spanSend, sendStart, sendEnd)
			l.trace(root, root, spanRecvWait, sendEnd, recv)
		}
	}
	finish()
}

// record files one scheduled frame under the measured window it arrived
// in; frames arriving outside the window are not measured.
func (l *sessionLog) record(d *driver, start, recv, lag int64, stalled, traced bool) {
	if recv < d.from || recv >= d.stop {
		return
	}
	d.lat[(recv-d.from)*windows/d.measure].add(recv - start)
	d.lag.add(lag)
	l.measured++
	if stalled {
		l.stalled++
	}
	half := 0
	if traced {
		half = 1
	}
	l.halfSum[half] += float64(recv-start) / 1e3
	l.halfN[half]++
}

func (d *driver) traced(t int64) bool { return d.tracedFrom >= 0 && t >= d.tracedFrom }

// trailMatches compares a replay's action records with the offline trail
// up to the frames the replay streamed.
func trailMatches(frames int, got, trail []serve.ActionMsg) bool {
	var want []serve.ActionMsg
	for _, a := range trail {
		if a.I < frames {
			want = append(want, a)
		}
	}
	if len(want) != len(got) {
		return false
	}
	for i := range want {
		if want[i] != got[i] {
			return false
		}
	}
	return true
}
