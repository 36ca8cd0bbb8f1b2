package ledger

import (
	"bytes"
	"errors"
	"sync"
	"testing"
	"time"

	"repro/internal/kinematics"
	"repro/safemon/guard"
)

// sampleEvents returns a representative mix of every event kind.
func sampleEvents() []Event {
	var input kinematics.Frame
	for i := range input {
		input[i] = float64(i) * 0.25
	}
	return []Event{
		{Kind: KindSessionStart, Seq: 1, Session: 7, WallNS: 1000, Backend: "context", Model: "v3", Policy: "default", Labels: []int32{1, 2, 3, 2}},
		{Kind: KindVerdict, Seq: 2, Session: 7, WallNS: 2000, Backend: "context", Model: "v3", Policy: "default", FrameIndex: 0, Gesture: 2, Score: 0.75, Unsafe: false, HasInput: true, Input: input},
		{Kind: KindVerdict, Seq: 3, Session: 7, WallNS: 3000, Backend: "context", Model: "v3", Policy: "default", FrameIndex: 1, Gesture: 2, Score: 9.5, Unsafe: true, HasInput: true, Input: input},
		{Kind: KindAction, Seq: 4, Session: 7, WallNS: 3500, Backend: "context", Policy: "default", FrameIndex: 1, Score: 9.5, Action: guard.ActionSafeStop, AlertFrame: 1},
		{Kind: KindSessionEnd, Seq: 5, Session: 7, WallNS: 4000, Backend: "context", FrameIndex: 2, Note: "eof"},
		{Kind: KindModelSwap, Seq: 6, WallNS: 5000, Backend: "context", Model: "v4", Note: "v3"},
	}
}

// testStore opens a DiskStore in a fresh temporary directory. The
// appender that owns it closes it; cleanup closes it again for tests that
// stop early.
func testStore(tb testing.TB) *DiskStore {
	tb.Helper()
	s, err := OpenDisk(tb.TempDir(), DiskConfig{})
	if err != nil {
		tb.Fatal(err)
	}
	tb.Cleanup(func() { s.Close() })
	return s
}

func TestCodecRoundTrip(t *testing.T) {
	events := sampleEvents()
	var buf []byte
	for i := range events {
		buf = appendEvent(buf, &events[i])
	}
	var got []Event
	clean, err := ReadSegment(buf, func(e *Event) bool {
		cp := *e
		cp.Labels = append([]int32(nil), e.Labels...)
		got = append(got, cp)
		return true
	})
	if err != nil {
		t.Fatalf("ReadSegment: %v", err)
	}
	if clean != int64(len(buf)) {
		t.Fatalf("clean prefix %d, want %d", clean, len(buf))
	}
	if len(got) != len(events) {
		t.Fatalf("decoded %d events, want %d", len(got), len(events))
	}
	for i := range events {
		want, have := events[i], got[i]
		if len(want.Labels) == 0 {
			want.Labels = nil
		}
		if !eventsEqual(&want, &have) {
			t.Errorf("event %d: got %+v, want %+v", i, have, want)
		}
	}
	// Re-encoding the decoded events must reproduce the bytes exactly:
	// the canonical-encoding property.
	var buf2 []byte
	for i := range got {
		buf2 = appendEvent(buf2, &got[i])
	}
	if !bytes.Equal(buf, buf2) {
		t.Fatal("re-encoded segment differs from original bytes")
	}
}

func eventsEqual(a, b *Event) bool {
	if a.Seq != b.Seq || a.Kind != b.Kind || a.Session != b.Session || a.WallNS != b.WallNS ||
		a.Backend != b.Backend || a.Model != b.Model || a.Policy != b.Policy || a.Note != b.Note ||
		a.FrameIndex != b.FrameIndex || a.Gesture != b.Gesture || a.Score != b.Score ||
		a.Unsafe != b.Unsafe || a.Action != b.Action || a.AlertFrame != b.AlertFrame ||
		a.HasInput != b.HasInput || a.Input != b.Input || len(a.Labels) != len(b.Labels) {
		return false
	}
	for i := range a.Labels {
		if a.Labels[i] != b.Labels[i] {
			return false
		}
	}
	return true
}

func TestReadSegmentTornTail(t *testing.T) {
	events := sampleEvents()
	var buf []byte
	for i := range events {
		buf = appendEvent(buf, &events[i])
	}
	full := int64(len(buf))
	// Cutting anywhere inside the last record must report a torn tail
	// with the clean prefix ending exactly before that record.
	var prefix []byte
	for i := range events[:len(events)-1] {
		prefix = appendEvent(prefix, &events[i])
	}
	lastStart := int64(len(prefix))
	for cut := full - 1; cut > lastStart; cut-- {
		clean, err := ReadSegment(buf[:cut], nil)
		if !errors.Is(err, ErrTornRecord) {
			t.Fatalf("cut %d: err = %v, want ErrTornRecord", cut, err)
		}
		if clean != lastStart {
			t.Fatalf("cut %d: clean %d, want %d", cut, clean, lastStart)
		}
	}
	// The clean prefix must itself read back without error.
	n := 0
	clean, err := ReadSegment(buf[:lastStart], func(e *Event) bool { n++; return true })
	if err != nil || clean != lastStart || n != len(events)-1 {
		t.Fatalf("clean prefix reread: n=%d clean=%d err=%v", n, clean, err)
	}
}

func TestReadSegmentCorruptRecord(t *testing.T) {
	events := sampleEvents()
	var buf []byte
	for i := range events {
		buf = appendEvent(buf, &events[i])
	}
	// Flip a payload byte in the middle: CRC must catch it and the error
	// must be corrupt, not torn.
	mut := append([]byte(nil), buf...)
	mut[len(mut)/2] ^= 0x40
	_, err := ReadSegment(mut, nil)
	if !errors.Is(err, ErrCorruptRecord) && !errors.Is(err, ErrTornRecord) {
		t.Fatalf("bit flip: err = %v, want corrupt or torn", err)
	}
	// An absurd length field is corrupt, never a huge allocation.
	bad := append([]byte(nil), buf...)
	bad[0], bad[1], bad[2], bad[3] = 0xff, 0xff, 0xff, 0x7f
	if _, err := ReadSegment(bad, nil); !errors.Is(err, ErrCorruptRecord) {
		t.Fatalf("oversized length: err = %v, want ErrCorruptRecord", err)
	}
}

func TestEncodableCapsRecordSize(t *testing.T) {
	// The largest label count the codec admits: everything encodable must
	// frame to a record ReadSegment accepts.
	base := Event{Kind: KindSessionStart, Seq: 1, Session: 1, Backend: "context", Model: "v1", Policy: "default"}
	fit := (maxEventBytes - encodedSize(&base)) / 4
	if fit > maxLabels {
		fit = maxLabels
	}
	big := base
	big.Labels = make([]int32, fit)
	if !encodable(&big) {
		t.Fatalf("event with %d labels not encodable", fit)
	}
	buf := appendEvent(nil, &big)
	n := 0
	if clean, err := ReadSegment(buf, func(e *Event) bool { n++; return true }); err != nil || clean != int64(len(buf)) || n != 1 {
		t.Fatalf("boundary event rejected by its own decoder: n=%d clean=%d err=%v", n, clean, err)
	}

	// One label more and the record would exceed maxEventBytes: the
	// writer must refuse it, because ReadSegment would call the whole
	// segment corrupt at that record.
	over := base
	over.Labels = make([]int32, fit+1)
	if encodable(&over) {
		t.Fatalf("event encoding to %d bytes (> %d) passed encodable", encodedSize(&over), maxEventBytes)
	}
}

func TestEmitDropsOversizedEventWithoutPoisoningSegment(t *testing.T) {
	// The review scenario: a session-start whose labels fit maxLabels but
	// encode past maxEventBytes must be dropped at Emit, not written —
	// otherwise one stream makes every subsequent Scan fail and recovery
	// truncate the tail.
	dir := t.TempDir()
	s, err := OpenDisk(dir, DiskConfig{})
	if err != nil {
		t.Fatal(err)
	}
	a := NewAppender(s, Options{})
	oversized := Event{Kind: KindSessionStart, Session: 1, Labels: make([]int32, maxLabels)}
	a.Emit(&oversized)
	good := Event{Kind: KindVerdict, Session: 1, HasInput: true}
	a.Emit(&good)
	a.Flush()
	if st := a.Stats(); st.Dropped != 1 || st.Appended != 1 {
		t.Fatalf("stats = %+v, want 1 dropped / 1 appended", st)
	}
	if err := a.Close(); err != nil {
		t.Fatal(err)
	}

	// The segment must reopen clean: nothing truncated, the good event
	// retained.
	s2, err := OpenDisk(dir, DiskConfig{})
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	if s2.RecoveredBytes() != 0 {
		t.Fatalf("recovery truncated %d bytes of a segment that must be clean", s2.RecoveredBytes())
	}
	n := 0
	if err := s2.Scan(0, func(e *Event) bool { n++; return true }); err != nil {
		t.Fatalf("scan after oversized emit: %v", err)
	}
	if n != 1 {
		t.Fatalf("retained %d events, want 1", n)
	}
}

// failingSyncStore simulates an fsync failure at the durability barrier.
type failingSyncStore struct{ *DiskStore }

func (s *failingSyncStore) Sync() error { return errors.New("fsync failed") }

func TestFlushCountsSyncFailure(t *testing.T) {
	a := NewAppender(&failingSyncStore{testStore(t)}, Options{})
	e := Event{Kind: KindVerdict, Session: 1}
	a.Emit(&e)
	a.Flush()
	if st := a.Stats(); st.Errors == 0 {
		t.Fatalf("flush-time sync failure invisible in stats: %+v", st)
	}
	a.Close()
}

func TestAppenderBatchingAndFlush(t *testing.T) {
	s := testStore(t)
	a := NewAppender(s, Options{Queue: 64, Batch: 8, FlushEvery: time.Hour})
	defer a.Close()
	for i := 0; i < 20; i++ {
		e := Event{Kind: KindVerdict, Session: 1, FrameIndex: int32(i)}
		a.Emit(&e)
	}
	a.Flush()
	st := a.Stats()
	if st.Appended != 20 || st.Dropped != 0 {
		t.Fatalf("stats after flush: %+v", st)
	}
	// Sequence numbers must be dense and monotonic from 1.
	var seqs []uint64
	s.Scan(0, func(e *Event) bool { seqs = append(seqs, e.Seq); return true })
	if len(seqs) != 20 {
		t.Fatalf("store holds %d events, want 20", len(seqs))
	}
	for i, q := range seqs {
		if q != uint64(i+1) {
			t.Fatalf("seq[%d] = %d, want %d", i, q, i+1)
		}
	}
}

// countingStore is a DiskStore that records the sequence numbers each
// Append call carried.
type countingStore struct {
	*DiskStore
	mu    sync.Mutex
	calls [][]uint64
}

func (s *countingStore) Append(events []Event) error {
	seqs := make([]uint64, len(events))
	for i := range events {
		seqs[i] = events[i].Seq
	}
	s.mu.Lock()
	s.calls = append(s.calls, seqs)
	s.mu.Unlock()
	return s.DiskStore.Append(events)
}

// appends returns the seqs of every Append call so far.
func (s *countingStore) appends() [][]uint64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return append([][]uint64(nil), s.calls...)
}

// TestAppenderGroupCommits pins group commit: events that trickle in
// stay queued until the writer's next drain — here Flush, since the tick
// is an hour away — and then reach the store in one call; a drain of more
// than Batch events splits into calls of at most Batch.
func TestAppenderGroupCommits(t *testing.T) {
	s := &countingStore{DiskStore: testStore(t)}
	a := NewAppender(s, Options{Queue: 64, Batch: 32, FlushEvery: time.Hour})
	defer a.Close()
	emit := func(n int) {
		for i := 0; i < n; i++ {
			e := Event{Kind: KindVerdict, Session: 1, FrameIndex: int32(i)}
			a.Emit(&e)
			time.Sleep(200 * time.Microsecond)
		}
	}
	emit(20)
	if calls, st := s.appends(), a.Stats(); len(calls) != 0 || st.Appended != 0 {
		t.Fatalf("before Flush: %d store appends and %d events appended, want 0 and 0", len(calls), st.Appended)
	}
	a.Flush()
	emit(40)
	a.Flush()
	calls := s.appends()
	if len(calls) != 3 || len(calls[0]) != 20 || len(calls[1]) != 32 || len(calls[2]) != 8 {
		t.Fatalf("store appends %v, want one call carrying seqs 1-20, then 21-52 and 53-60", calls)
	}
	want := uint64(1)
	for _, call := range calls {
		for _, q := range call {
			if q != want {
				t.Fatalf("store appends %v: seq %d where %d belongs", calls, q, want)
			}
			want++
		}
	}
}

// TestAppenderWritesWithinFlushEvery pins the tick: a lone event reaches
// the store within FlushEvery, with no Flush.
func TestAppenderWritesWithinFlushEvery(t *testing.T) {
	a := NewAppender(testStore(t), Options{FlushEvery: 5 * time.Millisecond})
	defer a.Close()
	e := Event{Kind: KindVerdict, Session: 1}
	a.Emit(&e)
	deadline := time.Now().Add(time.Second)
	for a.Stats().Appended != 1 {
		if time.Now().After(deadline) {
			t.Fatalf("stats %+v 1s after one Emit, want it appended", a.Stats())
		}
		time.Sleep(time.Millisecond)
	}
}

// TestAppenderConcurrentEmitters races emitters against the writer's
// tick and concurrent Flush calls: every event lands once, with dense
// sequence numbers, in each emitter's own order.
func TestAppenderConcurrentEmitters(t *testing.T) {
	s := testStore(t)
	a := NewAppender(s, Options{Queue: 4096, Batch: 16, FlushEvery: time.Millisecond})
	defer a.Close()
	const emitters, each = 4, 500
	var wg sync.WaitGroup
	for g := 0; g < emitters; g++ {
		wg.Add(1)
		go func(session uint64) {
			defer wg.Done()
			for i := 0; i < each; i++ {
				e := Event{Kind: KindVerdict, Session: session, FrameIndex: int32(i)}
				a.Emit(&e)
				if i%100 == 0 {
					a.Flush()
				}
			}
		}(uint64(g + 1))
	}
	wg.Wait()
	a.Flush()
	if st := a.Stats(); st.Appended != emitters*each || st.Dropped != 0 {
		t.Fatalf("stats %+v, want %d appended and none dropped", st, emitters*each)
	}
	var seq uint64
	next := map[uint64]int32{}
	err := s.Scan(0, func(e *Event) bool {
		if e.Seq != seq+1 || e.FrameIndex != next[e.Session] {
			t.Fatalf("event seq %d (after %d) of session %d is frame %d, want frame %d", e.Seq, seq, e.Session, e.FrameIndex, next[e.Session])
		}
		seq = e.Seq
		next[e.Session]++
		return true
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestAppenderDropsWhenFull(t *testing.T) {
	// A store whose Append blocks until released simulates a stalled disk.
	block := make(chan struct{})
	s := &blockingStore{DiskStore: testStore(t), gate: block}
	a := NewAppender(s, Options{Queue: 4, Batch: 4, FlushEvery: time.Hour})
	// Saturate: 4 queued + whatever the writer grabbed; eventually Emit
	// must start dropping rather than blocking.
	deadline := time.Now().Add(5 * time.Second)
	for a.Stats().Dropped == 0 {
		if time.Now().After(deadline) {
			t.Fatal("appender never dropped despite stalled store")
		}
		e := Event{Kind: KindVerdict, Session: 1}
		a.Emit(&e)
	}
	close(block)
	a.Close()
	if got := a.Stats(); got.Dropped == 0 {
		t.Fatalf("expected drops, stats %+v", got)
	}
}

type blockingStore struct {
	*DiskStore
	gate    chan struct{}
	blocked bool
}

func (s *blockingStore) Append(events []Event) error {
	if !s.blocked {
		s.blocked = true
		<-s.gate
	}
	return s.DiskStore.Append(events)
}

func TestAppenderEmitAfterClose(t *testing.T) {
	a := NewAppender(testStore(t), Options{})
	if err := a.Close(); err != nil {
		t.Fatal(err)
	}
	// Must not panic; events after close are silently queued or dropped.
	for i := 0; i < 10000; i++ {
		e := Event{Kind: KindVerdict, Session: 1}
		a.Emit(&e)
	}
	a.Flush() // no-op, must not hang
	if err := a.Close(); err != nil {
		t.Fatal(err)
	}
}

func TestNilAppenderAndRecorder(t *testing.T) {
	var a *Appender
	var e Event
	a.Emit(&e)
	a.Flush()
	if err := a.Close(); err != nil {
		t.Fatal(err)
	}
	if a.Store() != nil {
		t.Fatal("nil appender store")
	}
	var r *Recorder
	r.Start(nil)
	r.Verdict(e.Verdict(), nil)
	r.Action(guard.Decision{})
	r.End(0, "eof")
	if r.Session() != 0 {
		t.Fatal("nil recorder session")
	}
	ModelSwap(nil, "context", "v2", "v1")
}

func TestRecorderEmitsSessionTrail(t *testing.T) {
	s := testStore(t)
	a := NewAppender(s, Options{})
	rec := NewRecorder(a, "context", "v7", "default")
	if rec.Session() == 0 {
		t.Fatal("recorder session not assigned")
	}
	rec.Start([]int{1, 2})
	var input kinematics.Frame
	input[3] = 1.5
	rec.Verdict(sampleEvents()[1].Verdict(), &input)
	rec.Action(guard.Decision{Action: guard.ActionSafeStop, Changed: true, FrameIndex: 1, AlertFrame: 1, Score: 9.9})
	rec.End(2, "eof")
	ModelSwap(a, "context", "v8", "v7")
	a.Flush()
	var kinds []Kind
	s.Scan(0, func(e *Event) bool {
		kinds = append(kinds, e.Kind)
		if e.Kind == KindVerdict && e.Input != input {
			t.Error("verdict event lost its input frame")
		}
		if e.Kind != KindModelSwap && e.Session != rec.Session() {
			t.Errorf("%v event has session %d, want %d", e.Kind, e.Session, rec.Session())
		}
		return true
	})
	want := []Kind{KindSessionStart, KindVerdict, KindAction, KindSessionEnd, KindModelSwap}
	if len(kinds) != len(want) {
		t.Fatalf("recorded kinds %v, want %v", kinds, want)
	}
	for i := range want {
		if kinds[i] != want[i] {
			t.Fatalf("recorded kinds %v, want %v", kinds, want)
		}
	}
	a.Close()
}

func TestIncidentDerivation(t *testing.T) {
	s := testStore(t)
	a := NewAppender(s, Options{})
	// Session 1: benign, no latching action — not an incident.
	r1 := NewRecorder(a, "context", "v1", "default")
	r1.Start(nil)
	r1.Verdict(sampleEvents()[1].Verdict(), &kinematics.Frame{})
	r1.End(1, "eof")
	// Session 2: safe-stop — an incident.
	r2 := NewRecorder(a, "envelope", "v2", "strict")
	r2.Start([]int{4, 4})
	var f kinematics.Frame
	f[0] = 2.5
	r2.Verdict(sampleEvents()[1].Verdict(), &f)
	r2.Verdict(sampleEvents()[2].Verdict(), &f)
	r2.Action(guard.Decision{Action: guard.ActionSafeStop, Changed: true, FrameIndex: 1, AlertFrame: 1, Score: 9.5})
	r2.End(2, "eof")
	a.Flush()

	list, err := ScanIncidents(s, 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(list) != 1 {
		t.Fatalf("incidents = %d, want 1", len(list))
	}
	sum := list[0]
	if sum.Session != r2.Session() || sum.Backend != "envelope" || sum.Policy != "strict" ||
		sum.TriggerAction != "safe-stop" || sum.TriggerFrame != 1 || sum.Frames != 2 || !sum.Closed {
		t.Fatalf("summary %+v", sum)
	}
	inc, err := LoadIncident(s, r2.Session())
	if err != nil {
		t.Fatal(err)
	}
	if len(inc.Inputs) != 2 || len(inc.Verdicts) != 2 || len(inc.Actions) != 1 || inc.EndReason != "eof" {
		t.Fatalf("incident %+v", inc)
	}
	if inc.Inputs[0] != f {
		t.Fatal("incident lost the recorded input frame")
	}
	if len(inc.Labels) != 2 || inc.Labels[0] != 4 {
		t.Fatalf("incident labels %v", inc.Labels)
	}
	if _, err := LoadIncident(s, r1.Session()); !errors.As(err, &ErrNoIncident{}) {
		var none ErrNoIncident
		if !errors.As(err, &none) {
			t.Fatalf("benign session: err = %v, want ErrNoIncident", err)
		}
	}
	a.Close()
}

func TestIncidentIDRoundTrip(t *testing.T) {
	id := IncidentID(42)
	if id != "inc-42" {
		t.Fatalf("IncidentID = %q", id)
	}
	session, err := ParseIncidentID(id)
	if err != nil || session != 42 {
		t.Fatalf("ParseIncidentID = %d, %v", session, err)
	}
	for _, bad := range []string{"", "inc-", "inc-0", "42", "inc-x", "inc--1"} {
		if _, err := ParseIncidentID(bad); err == nil {
			t.Errorf("ParseIncidentID(%q) accepted", bad)
		}
	}
}
