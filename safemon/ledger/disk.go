package ledger

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"
)

// DiskConfig tunes a DiskStore. The zero value selects the documented
// defaults.
type DiskConfig struct {
	// SegmentBytes rotates the active segment once it reaches this size;
	// <= 0 means 8 MiB. One batch always lands in one segment, so a
	// segment may overshoot by at most one batch.
	SegmentBytes int64
	// MaxBytes is the retention budget: once the store exceeds it,
	// compaction removes the oldest sealed segments (never the active
	// one, never a segment backing a pinned session). <= 0 means 256 MiB.
	MaxBytes int64
	// MaxAge, when > 0, additionally compacts sealed segments whose
	// newest event is older than this.
	MaxAge time.Duration
	// now overrides the clock in tests.
	now func() time.Time
}

func (c DiskConfig) withDefaults() DiskConfig {
	if c.SegmentBytes <= 0 {
		c.SegmentBytes = 8 << 20
	}
	if c.MaxBytes <= 0 {
		c.MaxBytes = 256 << 20
	}
	if c.now == nil {
		c.now = time.Now
	}
	return c
}

// segment is the in-memory index entry for one segment file. sessions
// lists every session with at least one event in the segment, so
// compaction can honor pins without re-reading files.
type segment struct {
	path     string
	firstSeq uint64
	lastSeq  uint64
	size     int64
	lastWall int64
	sessions map[uint64]struct{}
}

// DiskStore is the durable Store: length-prefixed CRC-checked binary
// records in size-rotated segment files under one directory. Rotation
// fsyncs the sealed segment; Sync fsyncs the active one. Opening a
// directory recovers crash-safely: a torn record tail (the shape an
// interrupted append or power loss leaves) is truncated away and logged
// in RecoveredBytes rather than refusing to open, and everything before
// the tear keeps serving.
//
// A single writer (the Appender) calls Append/Sync/Close; any number of
// readers may Scan concurrently.
type DiskStore struct {
	dir string
	cfg DiskConfig

	mu         sync.Mutex
	segs       []*segment // oldest first; the last entry is active
	active     *os.File
	pinned     map[uint64]struct{}
	firstSeq   uint64
	lastSeq    uint64
	maxSession uint64
	encBuf     []byte
	recovered  int64 // bytes truncated during recovery
	compacted  uint64
	closed     bool
}

// segmentName renders the canonical file name for a segment whose first
// record has the given sequence number.
func segmentName(firstSeq uint64) string {
	return fmt.Sprintf("seg-%020d.led", firstSeq)
}

// parseSegmentName extracts the first-sequence number from a segment
// file name, reporting ok=false for foreign files.
func parseSegmentName(name string) (uint64, bool) {
	if !strings.HasPrefix(name, "seg-") || !strings.HasSuffix(name, ".led") {
		return 0, false
	}
	n, err := strconv.ParseUint(strings.TrimSuffix(strings.TrimPrefix(name, "seg-"), ".led"), 10, 64)
	if err != nil {
		return 0, false
	}
	return n, true
}

// OpenDisk opens (creating if needed) a segment-file ledger store in dir.
func OpenDisk(dir string, cfg DiskConfig) (*DiskStore, error) {
	cfg = cfg.withDefaults()
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("ledger: open %s: %w", dir, err)
	}
	s := &DiskStore{dir: dir, cfg: cfg, pinned: map[uint64]struct{}{}}
	if err := s.recover(); err != nil {
		return nil, err
	}
	// Age-based retention applies at open as well as at rotation, so a
	// daemon restarted after a long gap does not serve stale segments.
	s.mu.Lock()
	s.compactLocked()
	s.mu.Unlock()
	return s, nil
}

// recover indexes the existing segment files, truncating a torn tail in
// place wherever one is found. Events after an in-segment corruption are
// unrecoverable and are dropped with the tear; the clean prefix survives.
func (s *DiskStore) recover() error {
	entries, err := os.ReadDir(s.dir)
	if err != nil {
		return fmt.Errorf("ledger: read %s: %w", s.dir, err)
	}
	names := make([]string, 0, len(entries))
	for _, ent := range entries {
		if ent.IsDir() {
			continue
		}
		if _, ok := parseSegmentName(ent.Name()); ok {
			names = append(names, ent.Name())
		}
	}
	sort.Strings(names) // zero-padded names sort by first sequence
	for _, name := range names {
		path := filepath.Join(s.dir, name)
		seg, latched, truncated, err := indexSegment(path)
		if err != nil {
			return err
		}
		s.recovered += truncated
		if seg.size == 0 {
			// A segment with no clean records carries nothing; remove it
			// rather than index an empty file.
			os.Remove(path)
			continue
		}
		s.segs = append(s.segs, seg)
		if s.firstSeq == 0 {
			s.firstSeq = seg.firstSeq
		}
		if seg.lastSeq > s.lastSeq {
			s.lastSeq = seg.lastSeq
		}
		for sess := range seg.sessions {
			if sess > s.maxSession {
				s.maxSession = sess
			}
		}
		// Latching mitigation actions mark incident sessions; re-pin them
		// so compaction keeps honoring incidents across restarts.
		for _, sess := range latched {
			s.pinned[sess] = struct{}{}
		}
	}
	return nil
}

// indexSegment reads one segment file, truncates any torn or corrupt
// tail, and returns its index entry, the sessions on which a latching
// mitigation engaged (for re-pinning), and the number of bytes dropped.
// Latch detection rides the indexing scan so recovery reads each file
// exactly once.
func indexSegment(path string) (*segment, []uint64, int64, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, nil, 0, fmt.Errorf("ledger: read segment %s: %w", path, err)
	}
	seg := &segment{path: path, sessions: map[uint64]struct{}{}}
	var latched []uint64
	clean, scanErr := ReadSegment(data, func(e *Event) bool {
		seg.noteEvent(e)
		if e.Kind == KindAction && e.Action.Latches() {
			latched = append(latched, e.Session)
		}
		return true
	})
	seg.size = clean
	if scanErr != nil && clean < int64(len(data)) {
		if err := os.Truncate(path, clean); err != nil {
			return nil, nil, 0, fmt.Errorf("ledger: truncate torn tail of %s: %w", path, err)
		}
	}
	return seg, latched, int64(len(data)) - clean, nil
}

// noteEvent folds one event into the segment's index entry.
func (seg *segment) noteEvent(e *Event) {
	if seg.firstSeq == 0 {
		seg.firstSeq = e.Seq
	}
	seg.lastSeq = e.Seq
	if e.WallNS > seg.lastWall {
		seg.lastWall = e.WallNS
	}
	if e.Session != 0 {
		seg.sessions[e.Session] = struct{}{}
	}
}

// Append implements Store: the batch is encoded into one buffer and
// written with a single write call, so the on-disk file only ever grows
// by whole records (the invariant recovery and concurrent Scan rely on).
func (s *DiskStore) Append(events []Event) error {
	if len(events) == 0 {
		return nil
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return errors.New("ledger: store closed")
	}
	if s.active == nil || (len(s.segs) > 0 && s.segs[len(s.segs)-1].size >= s.cfg.SegmentBytes) {
		if err := s.rotateLocked(events[0].Seq); err != nil {
			return err
		}
	}
	seg := s.segs[len(s.segs)-1]
	s.encBuf = s.encBuf[:0]
	for i := range events {
		s.encBuf = appendEvent(s.encBuf, &events[i])
	}
	if _, err := s.active.Write(s.encBuf); err != nil {
		return fmt.Errorf("ledger: append: %w", err)
	}
	for i := range events {
		e := &events[i]
		seg.noteEvent(e)
		if e.Session > s.maxSession {
			s.maxSession = e.Session
		}
		if e.Kind == KindAction && e.Action.Latches() {
			s.pinned[e.Session] = struct{}{}
		}
		// firstSeq > lastSeq marks a store that retains nothing (all
		// remaining segments empty after compaction): re-anchor on the
		// first event to land.
		if s.firstSeq == 0 || s.firstSeq > s.lastSeq {
			s.firstSeq = e.Seq
		}
		if e.Seq > s.lastSeq {
			s.lastSeq = e.Seq
		}
	}
	seg.size += int64(len(s.encBuf))
	return nil
}

// rotateLocked seals the active segment (fsync + close) and opens a new
// one whose name carries the first sequence it will hold, then applies
// retention.
func (s *DiskStore) rotateLocked(nextSeq uint64) error {
	if s.active != nil {
		if err := s.active.Sync(); err != nil {
			return fmt.Errorf("ledger: sync segment: %w", err)
		}
		if err := s.active.Close(); err != nil {
			return fmt.Errorf("ledger: close segment: %w", err)
		}
		s.active = nil
	}
	path := filepath.Join(s.dir, segmentName(nextSeq))
	f, err := os.OpenFile(path, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return fmt.Errorf("ledger: create segment: %w", err)
	}
	// Resuming into an existing file (e.g. reopening after recovery with
	// the same next sequence) must append after the clean prefix only.
	if seg := s.findSegmentLocked(path); seg != nil {
		s.active = f
		s.compactLocked()
		return nil
	}
	s.segs = append(s.segs, &segment{path: path, sessions: map[uint64]struct{}{}})
	s.active = f
	if err := syncDir(s.dir); err != nil {
		return err
	}
	s.compactLocked()
	return nil
}

// findSegmentLocked returns the index entry for path, if present.
func (s *DiskStore) findSegmentLocked(path string) *segment {
	for _, seg := range s.segs {
		if seg.path == path {
			return seg
		}
	}
	return nil
}

// compactLocked enforces the retention budget: oldest sealed segments
// are removed while the store is over MaxBytes or the segment is past
// MaxAge — except segments backing a pinned (incident) session, which
// are always retained, and the active segment, which is never removed.
func (s *DiskStore) compactLocked() {
	for len(s.segs) > 1 {
		seg := s.segs[0]
		overBytes := s.sizeLocked() > s.cfg.MaxBytes
		overAge := s.cfg.MaxAge > 0 && seg.lastWall > 0 &&
			s.cfg.now().Sub(time.Unix(0, seg.lastWall)) > s.cfg.MaxAge
		if !overBytes && !overAge {
			return
		}
		if s.segmentPinnedLocked(seg) {
			// An incident pins its whole session history; retention
			// cannot cross a pinned segment without losing the incident,
			// so compaction stops here until the incident is unpinned.
			return
		}
		os.Remove(seg.path)
		s.segs = s.segs[1:]
		s.firstSeq = firstRetainedSeq(s.segs, s.lastSeq)
		s.compacted++
	}
}

// firstRetainedSeq is the first sequence of the oldest non-empty
// remaining segment. A freshly rotated active segment has firstSeq 0
// until its first batch lands, so it must be skipped — otherwise Bounds
// would report first=0 while last>0. With only empty segments left, the
// next event to land will be lastSeq+1.
func firstRetainedSeq(segs []*segment, lastSeq uint64) uint64 {
	for _, seg := range segs {
		if seg.firstSeq != 0 {
			return seg.firstSeq
		}
	}
	return lastSeq + 1
}

// segmentPinnedLocked reports whether any of the segment's sessions is
// pinned.
func (s *DiskStore) segmentPinnedLocked(seg *segment) bool {
	for sess := range seg.sessions {
		if _, ok := s.pinned[sess]; ok {
			return true
		}
	}
	return false
}

func (s *DiskStore) sizeLocked() int64 {
	var n int64
	for _, seg := range s.segs {
		n += seg.size
	}
	return n
}

// Scan implements Store. The segment list is snapshotted under the lock
// and files are then read without it: sealed segments are immutable and
// the active one only grows by whole records, so reading each file up to
// its indexed size is always consistent. A segment compacted away
// mid-scan is skipped.
func (s *DiskStore) Scan(from uint64, fn func(*Event) bool) error {
	s.mu.Lock()
	snap := make([]segment, 0, len(s.segs))
	for _, seg := range s.segs {
		if seg.lastSeq >= from && seg.size > 0 {
			snap = append(snap, segment{path: seg.path, size: seg.size})
		}
	}
	s.mu.Unlock()
	stop := false
	for i := range snap {
		err := scanFile(&snap[i], from, func(e *Event) bool {
			if !fn(e) {
				stop = true
				return false
			}
			return true
		})
		if err != nil {
			if errors.Is(err, os.ErrNotExist) {
				continue // compacted while scanning
			}
			return err
		}
		if stop {
			return nil
		}
	}
	return nil
}

// scanFile reads one segment file up to its indexed size and decodes its
// records.
func scanFile(seg *segment, from uint64, fn func(*Event) bool) error {
	f, err := os.Open(seg.path)
	if err != nil {
		return err
	}
	defer f.Close()
	_, err = ReadSegmentFrom(f, seg.size, func(e *Event) bool {
		if e.Seq < from {
			return true
		}
		return fn(e)
	})
	if err != nil {
		return fmt.Errorf("ledger: scan %s: %w", seg.path, err)
	}
	return nil
}

// Bounds implements Store.
func (s *DiskStore) Bounds() (first, last uint64) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.firstSeq, s.lastSeq
}

// MaxSession implements Store.
func (s *DiskStore) MaxSession() uint64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.maxSession
}

// SizeBytes implements Store.
func (s *DiskStore) SizeBytes() int64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.sizeLocked()
}

// RecoveredBytes reports how many torn-tail bytes recovery truncated
// when the store was opened.
func (s *DiskStore) RecoveredBytes() int64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.recovered
}

// Segments reports the number of segment files and the active segment's
// file name (for the appender's Snapshot).
func (s *DiskStore) Segments() (n int, active string) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if len(s.segs) == 0 {
		return 0, ""
	}
	return len(s.segs), filepath.Base(s.segs[len(s.segs)-1].path)
}

// Sync implements Store: fsync the active segment so every record
// accepted by Append is on stable storage.
func (s *DiskStore) Sync() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.active == nil || s.closed {
		return nil
	}
	if err := s.active.Sync(); err != nil {
		return fmt.Errorf("ledger: sync: %w", err)
	}
	return nil
}

// Close implements Store: syncs and closes the active segment. The store
// refuses further appends but remains scannable.
func (s *DiskStore) Close() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return nil
	}
	s.closed = true
	if s.active == nil {
		return nil
	}
	err := s.active.Sync()
	if cerr := s.active.Close(); err == nil {
		err = cerr
	}
	s.active = nil
	if err != nil {
		return fmt.Errorf("ledger: close: %w", err)
	}
	return nil
}

// Pin implements Store: compaction will not remove segments holding the
// session's events.
func (s *DiskStore) Pin(session uint64) {
	s.mu.Lock()
	s.pinned[session] = struct{}{}
	s.mu.Unlock()
}

// Unpin implements Store. Compaction runs immediately so that
// acknowledging an incident reclaims the disk it was holding without
// waiting for the next rotation.
func (s *DiskStore) Unpin(session uint64) {
	s.mu.Lock()
	delete(s.pinned, session)
	if !s.closed {
		s.compactLocked()
	}
	s.mu.Unlock()
}

// Pinned implements Store.
func (s *DiskStore) Pinned() []uint64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make([]uint64, 0, len(s.pinned))
	for id := range s.pinned {
		out = append(out, id)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// syncDir fsyncs a directory so a just-created segment file's directory
// entry survives power loss (the modelstore idiom).
func syncDir(dir string) error {
	d, err := os.Open(dir)
	if err != nil {
		return fmt.Errorf("ledger: open dir %s: %w", dir, err)
	}
	defer d.Close()
	if err := d.Sync(); err != nil {
		return fmt.Errorf("ledger: sync dir %s: %w", dir, err)
	}
	return nil
}
