package ledger

import (
	"os"
	"path/filepath"
	"testing"
	"time"

	"repro/internal/kinematics"
	"repro/safemon/guard"
)

// diskEvent builds one verdict event with an input frame, the dominant
// record shape on disk.
func diskEvent(seq, session uint64, frame int32) Event {
	var input kinematics.Frame
	input[0] = float64(frame)
	return Event{
		Kind: KindVerdict, Seq: seq, Session: session, WallNS: int64(seq) * 1e6,
		Backend: "context", Model: "v1", Policy: "default",
		FrameIndex: frame, Gesture: 2, Score: float64(frame) * 0.5,
		HasInput: true, Input: input,
	}
}

func TestDiskStoreRoundTrip(t *testing.T) {
	dir := t.TempDir()
	s, err := OpenDisk(dir, DiskConfig{})
	if err != nil {
		t.Fatal(err)
	}
	var batch []Event
	for i := 1; i <= 10; i++ {
		batch = append(batch, diskEvent(uint64(i), 3, int32(i-1)))
	}
	if err := s.Append(batch); err != nil {
		t.Fatal(err)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}

	// Reopen: everything must still be there.
	s2, err := OpenDisk(dir, DiskConfig{})
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	first, last := s2.Bounds()
	if first != 1 || last != 10 {
		t.Fatalf("bounds after reopen = (%d,%d), want (1,10)", first, last)
	}
	if s2.MaxSession() != 3 {
		t.Fatalf("MaxSession = %d, want 3", s2.MaxSession())
	}
	n := 0
	s2.Scan(4, func(e *Event) bool {
		if e.Seq < 4 {
			t.Errorf("scan cursor ignored: seq %d", e.Seq)
		}
		n++
		return true
	})
	if n != 7 {
		t.Fatalf("scan from 4 returned %d events, want 7", n)
	}
	// A callback returning false stops the scan at that event.
	var stopped []uint64
	if err := s2.Scan(5, func(e *Event) bool { stopped = append(stopped, e.Seq); return false }); err != nil {
		t.Fatal(err)
	}
	if len(stopped) != 1 || stopped[0] != 5 {
		t.Fatalf("early-stop scan from 5 returned %v, want [5]", stopped)
	}
}

func TestDiskStoreAppendAfterReopen(t *testing.T) {
	dir := t.TempDir()
	s, err := OpenDisk(dir, DiskConfig{})
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Append([]Event{diskEvent(1, 1, 0)}); err != nil {
		t.Fatal(err)
	}
	s.Close()
	s2, err := OpenDisk(dir, DiskConfig{})
	if err != nil {
		t.Fatal(err)
	}
	if err := s2.Append([]Event{diskEvent(2, 1, 1)}); err != nil {
		t.Fatal(err)
	}
	s2.Close()
	s3, err := OpenDisk(dir, DiskConfig{})
	if err != nil {
		t.Fatal(err)
	}
	defer s3.Close()
	var seqs []uint64
	s3.Scan(0, func(e *Event) bool { seqs = append(seqs, e.Seq); return true })
	if len(seqs) != 2 || seqs[0] != 1 || seqs[1] != 2 {
		t.Fatalf("after two lifetimes scan = %v, want [1 2]", seqs)
	}
}

func TestDiskStoreTornTailRecovery(t *testing.T) {
	dir := t.TempDir()
	s, err := OpenDisk(dir, DiskConfig{})
	if err != nil {
		t.Fatal(err)
	}
	var batch []Event
	for i := 1; i <= 5; i++ {
		batch = append(batch, diskEvent(uint64(i), 1, int32(i-1)))
	}
	if err := s.Append(batch); err != nil {
		t.Fatal(err)
	}
	s.Close()

	// Simulate power loss mid-append: chop bytes off the segment tail.
	segs, _ := filepath.Glob(filepath.Join(dir, "seg-*.led"))
	if len(segs) != 1 {
		t.Fatalf("segments on disk: %v", segs)
	}
	info, err := os.Stat(segs[0])
	if err != nil {
		t.Fatal(err)
	}
	if err := os.Truncate(segs[0], info.Size()-7); err != nil {
		t.Fatal(err)
	}

	s2, err := OpenDisk(dir, DiskConfig{})
	if err != nil {
		t.Fatalf("recovery refused to open: %v", err)
	}
	defer s2.Close()
	if s2.RecoveredBytes() == 0 {
		t.Fatal("recovery reported no truncated bytes")
	}
	first, last := s2.Bounds()
	if first != 1 || last != 4 {
		t.Fatalf("bounds after torn-tail recovery = (%d,%d), want (1,4)", first, last)
	}
	// The truncated store must accept new appends cleanly.
	if err := s2.Append([]Event{diskEvent(5, 2, 9)}); err != nil {
		t.Fatal(err)
	}
	n := 0
	s2.Scan(0, func(e *Event) bool { n++; return true })
	if n != 5 {
		t.Fatalf("post-recovery scan returned %d events, want 5", n)
	}
}

func TestDiskStoreCorruptMiddleRecovery(t *testing.T) {
	dir := t.TempDir()
	s, err := OpenDisk(dir, DiskConfig{})
	if err != nil {
		t.Fatal(err)
	}
	var batch []Event
	for i := 1; i <= 5; i++ {
		batch = append(batch, diskEvent(uint64(i), 1, int32(i-1)))
	}
	s.Append(batch)
	s.Close()

	// Flip a byte in the middle of the file: recovery keeps the clean
	// prefix and drops the rest.
	segs, _ := filepath.Glob(filepath.Join(dir, "seg-*.led"))
	data, err := os.ReadFile(segs[0])
	if err != nil {
		t.Fatal(err)
	}
	data[len(data)/2] ^= 0xff
	if err := os.WriteFile(segs[0], data, 0o644); err != nil {
		t.Fatal(err)
	}

	s2, err := OpenDisk(dir, DiskConfig{})
	if err != nil {
		t.Fatalf("recovery refused to open: %v", err)
	}
	defer s2.Close()
	n := 0
	s2.Scan(0, func(e *Event) bool { n++; return true })
	if n == 0 || n >= 5 {
		t.Fatalf("post-corruption scan returned %d events, want 1..4", n)
	}
}

func TestDiskStoreRotationAndRetention(t *testing.T) {
	dir := t.TempDir()
	// Tiny segments so a handful of events rotate several times; budget
	// of ~2 segments forces compaction.
	one := appendEvent(nil, &[]Event{diskEvent(1, 1, 0)}[0])
	segBytes := int64(len(one)) * 3
	s, err := OpenDisk(dir, DiskConfig{SegmentBytes: segBytes, MaxBytes: segBytes * 2})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	for i := 1; i <= 30; i++ {
		if err := s.Append([]Event{diskEvent(uint64(i), uint64(i), int32(i))}); err != nil {
			t.Fatal(err)
		}
	}
	segN, active := s.Segments()
	if segN < 2 || active == "" {
		t.Fatalf("segments = %d active %q, want rotation", segN, active)
	}
	if s.SizeBytes() > segBytes*3 {
		t.Fatalf("retention did not bound size: %d bytes", s.SizeBytes())
	}
	first, last := s.Bounds()
	if first <= 1 || last != 30 {
		t.Fatalf("bounds = (%d,%d): compaction should have advanced first", first, last)
	}
	// Retained events still scan in order.
	prev := uint64(0)
	s.Scan(0, func(e *Event) bool {
		if e.Seq <= prev {
			t.Errorf("out-of-order seq %d after %d", e.Seq, prev)
		}
		prev = e.Seq
		return true
	})
	if prev != 30 {
		t.Fatalf("newest retained seq = %d, want 30", prev)
	}
}

func TestDiskStoreCompactionSkipsPinned(t *testing.T) {
	dir := t.TempDir()
	one := appendEvent(nil, &[]Event{diskEvent(1, 1, 0)}[0])
	segBytes := int64(len(one)) * 2
	s, err := OpenDisk(dir, DiskConfig{SegmentBytes: segBytes, MaxBytes: segBytes})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	// Session 1 latches a safe-stop in the very first segment: the
	// append path must auto-pin it.
	latch := Event{Kind: KindAction, Seq: 1, Session: 1, WallNS: 1, Backend: "context",
		Action: guard.ActionSafeStop, AlertFrame: 0}
	if err := s.Append([]Event{latch}); err != nil {
		t.Fatal(err)
	}
	for i := 2; i <= 40; i++ {
		if err := s.Append([]Event{diskEvent(uint64(i), uint64(i), int32(i))}); err != nil {
			t.Fatal(err)
		}
	}
	// The pinned session's event must survive aggressive retention.
	found := false
	s.Scan(0, func(e *Event) bool {
		if e.Session == 1 && e.Kind == KindAction {
			found = true
			return false
		}
		return true
	})
	if !found {
		t.Fatal("compaction removed the segment backing a pinned incident")
	}
	pins := s.Pinned()
	if len(pins) != 1 || pins[0] != 1 {
		t.Fatalf("pinned = %v, want [1]", pins)
	}
	// Unpinning releases the backlog on the next compaction trigger.
	s.Unpin(1)
	for i := 41; i <= 50; i++ {
		if err := s.Append([]Event{diskEvent(uint64(i), uint64(i), int32(i))}); err != nil {
			t.Fatal(err)
		}
	}
	still := false
	s.Scan(0, func(e *Event) bool {
		if e.Session == 1 {
			still = true
			return false
		}
		return true
	})
	if still {
		t.Fatal("unpinned incident segment survived compaction")
	}
}

func TestDiskStoreBoundsAfterCompactingToEmptyActive(t *testing.T) {
	dir := t.TempDir()
	// SegmentBytes/MaxBytes of 1 byte: every append rotates and every
	// rotation compacts the sealed predecessor away, so right after
	// rotation the only remaining segment is the fresh, still-empty
	// active one.
	s, err := OpenDisk(dir, DiskConfig{SegmentBytes: 1, MaxBytes: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	if err := s.Append([]Event{diskEvent(1, 1, 0)}); err != nil {
		t.Fatal(err)
	}
	// Rotate by hand so the empty-active state is observable (Append
	// normally refills firstSeq before releasing the lock; a failed write
	// after rotation would leave this state behind).
	s.mu.Lock()
	if err := s.rotateLocked(2); err != nil {
		s.mu.Unlock()
		t.Fatal(err)
	}
	first, last := s.firstSeq, s.lastSeq
	s.mu.Unlock()
	if first == 0 || first != last+1 {
		t.Fatalf("bounds over empty active segment = (%d,%d), want first=last+1", first, last)
	}
	// The next append must re-anchor firstSeq on the event that lands.
	if err := s.Append([]Event{diskEvent(2, 2, 1)}); err != nil {
		t.Fatal(err)
	}
	first, last = s.Bounds()
	if first != 2 || last != 2 {
		t.Fatalf("bounds after re-anchor = (%d,%d), want (2,2)", first, last)
	}
}

func TestDiskStoreUnpinCompactsImmediately(t *testing.T) {
	dir := t.TempDir()
	one := appendEvent(nil, &[]Event{diskEvent(1, 1, 0)}[0])
	segBytes := int64(len(one)) * 2
	s, err := OpenDisk(dir, DiskConfig{SegmentBytes: segBytes, MaxBytes: segBytes})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	latch := Event{Kind: KindAction, Seq: 1, Session: 1, WallNS: 1, Backend: "context",
		Action: guard.ActionSafeStop, AlertFrame: 0}
	if err := s.Append([]Event{latch}); err != nil {
		t.Fatal(err)
	}
	for i := 2; i <= 40; i++ {
		if err := s.Append([]Event{diskEvent(uint64(i), uint64(i), int32(i))}); err != nil {
			t.Fatal(err)
		}
	}
	pinnedSize := s.SizeBytes()
	if pinnedSize <= s.cfg.MaxBytes {
		t.Fatalf("pinned incident did not hold size over budget: %d <= %d", pinnedSize, s.cfg.MaxBytes)
	}
	// Acknowledging the incident must reclaim the backlog right away —
	// not at the next rotation, which an idle deployment may never reach.
	s.Unpin(1)
	if got := s.SizeBytes(); got >= pinnedSize {
		t.Fatalf("Unpin did not compact: %d bytes before, %d after", pinnedSize, got)
	}
	gone := true
	s.Scan(0, func(e *Event) bool {
		if e.Session == 1 {
			gone = false
			return false
		}
		return true
	})
	if !gone {
		t.Fatal("unpinned incident events survived immediate compaction")
	}
}

func TestDiskStorePinSurvivesReopen(t *testing.T) {
	dir := t.TempDir()
	s, err := OpenDisk(dir, DiskConfig{})
	if err != nil {
		t.Fatal(err)
	}
	latch := Event{Kind: KindAction, Seq: 1, Session: 9, WallNS: 1, Backend: "context",
		Action: guard.ActionRetract, AlertFrame: 0}
	s.Append([]Event{latch})
	s.Close()
	s2, err := OpenDisk(dir, DiskConfig{})
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	pins := s2.Pinned()
	if len(pins) != 1 || pins[0] != 9 {
		t.Fatalf("pins after reopen = %v, want [9]", pins)
	}
}

func TestDiskStoreAgeRetention(t *testing.T) {
	dir := t.TempDir()
	now := time.Unix(1_000_000, 0)
	clock := func() time.Time { return now }
	// One event per segment so the stale event never shares a segment
	// with a fresh one (segment age is its newest event's age).
	s, err := OpenDisk(dir, DiskConfig{
		SegmentBytes: 1, MaxBytes: 1 << 30,
		MaxAge: time.Minute, now: clock,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	old := diskEvent(1, 1, 0)
	old.WallNS = now.Add(-time.Hour).UnixNano()
	s.Append([]Event{old})
	// Fill past the segment bound so the old segment seals, then keep
	// appending fresh events; rotation must age the stale segment out.
	for i := 2; i <= 10; i++ {
		e := diskEvent(uint64(i), uint64(i), int32(i))
		e.WallNS = now.UnixNano()
		s.Append([]Event{e})
	}
	gone := true
	s.Scan(0, func(e *Event) bool {
		if e.Seq == 1 {
			gone = false
			return false
		}
		return true
	})
	if !gone {
		t.Fatal("age retention kept a segment past MaxAge")
	}
}

func TestDiskStoreIgnoresForeignFiles(t *testing.T) {
	dir := t.TempDir()
	os.WriteFile(filepath.Join(dir, "README.txt"), []byte("not a segment"), 0o644)
	os.WriteFile(filepath.Join(dir, "seg-bogus.led"), []byte("also not"), 0o644)
	s, err := OpenDisk(dir, DiskConfig{})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	if err := s.Append([]Event{diskEvent(1, 1, 0)}); err != nil {
		t.Fatal(err)
	}
	n := 0
	s.Scan(0, func(e *Event) bool { n++; return true })
	if n != 1 {
		t.Fatalf("scan returned %d events, want 1", n)
	}
}

func TestAppenderOverDiskSeedsFromStore(t *testing.T) {
	dir := t.TempDir()
	s, err := OpenDisk(dir, DiskConfig{})
	if err != nil {
		t.Fatal(err)
	}
	a := NewAppender(s, Options{})
	rec := NewRecorder(a, "context", "v1", "default")
	rec.Start(nil)
	rec.End(0, "eof")
	a.Flush()
	firstSession := rec.Session()
	if err := a.Close(); err != nil {
		t.Fatal(err)
	}

	s2, err := OpenDisk(dir, DiskConfig{})
	if err != nil {
		t.Fatal(err)
	}
	a2 := NewAppender(s2, Options{})
	defer a2.Close()
	rec2 := NewRecorder(a2, "context", "v1", "default")
	if rec2.Session() <= firstSession {
		t.Fatalf("session ID reused across restart: %d then %d", firstSession, rec2.Session())
	}
	rec2.Start(nil)
	a2.Flush()
	// Sequence numbers must continue, not restart.
	var seqs []uint64
	s2.Scan(0, func(e *Event) bool { seqs = append(seqs, e.Seq); return true })
	if len(seqs) != 3 || seqs[2] != 3 {
		t.Fatalf("seqs across restart = %v, want [1 2 3]", seqs)
	}
}
