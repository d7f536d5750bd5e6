package store

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"io"
	"maps"
	"os"
	"path/filepath"
	"slices"
	"sync"
	"time"
)

// Log is the durable KV backend: a single append-only file of CRC-framed
// records plus an in-RAM key directory (key → record location) and the
// sorted key index over the same keys. Values live on disk and are read
// back on demand, so resident memory is proportional to the key space, not
// the data; a policy tree far larger than the in-process LRU can persist
// here and page in by prefix scan.
//
// # Record framing
//
//	[4B crc32][1B op][4B key len][4B value len][key][value]
//
// The CRC covers everything after itself. op is opPut or opDelete (deletes
// are tombstone records, so a reopened log replays to the same state).
//
// # Crash safety
//
// A record is acknowledged only after its bytes are handed to the OS in one
// write. On open, the file is replayed sequentially; the first record that
// is short or fails its CRC marks a torn tail — the file is truncated there
// and every acked write before it is intact. A record that claims an
// impossible length (corruption that still passes the length read) is
// caught the same way. Compaction rewrites live records to a temp file and
// atomically renames it over the log, so a crash mid-compaction leaves the
// original untouched.
//
// # Compaction
//
// Overwritten and deleted records are garbage ("dead bytes"). After a write
// the backend compacts automatically once dead bytes exceed both
// CompactMinGarbage and CompactGarbageRatio of the file; Compact may also
// be called explicitly.
type Log struct {
	cnt   counters
	opts  LogOptions
	path  string
	tPath string // temp file used by compaction

	mu     sync.Mutex
	f      *os.File
	off    int64 // append offset == durable file size
	dir    map[string]recLoc
	keys   keyIndex
	live   int64 // bytes of live records
	dead   int64 // bytes of garbage records
	closed bool

	compactions    int64
	compactedBytes int64

	// failAfter, when non-negative, makes writes fail (simulating a crash)
	// after that many more bytes reach the file — possibly mid-record.
	// Test hook; -1 disables.
	failAfter int64
}

// LogOptions are the log backend's knobs; zero values select the defaults.
type LogOptions struct {
	// CompactMinGarbage is the minimum dead-byte count before an automatic
	// compaction (default 1 MiB). Negative disables automatic compaction.
	CompactMinGarbage int64
	// CompactGarbageRatio is the dead fraction of the file that must be
	// garbage before an automatic compaction (default 0.5).
	CompactGarbageRatio float64
	// SyncEvery fsyncs after every write when true; by default only Sync
	// and Close flush to stable storage.
	SyncEvery bool
	// Observe, when non-nil, receives the wall-clock duration of each
	// append ("append": framing plus the contiguous file write of one
	// batch), fsync ("fsync") and log compaction ("compact") — the hook a
	// telemetry layer points at a latency histogram. It is called with the
	// store lock held, so it must be cheap and must not call back into the
	// store.
	Observe func(op string, d time.Duration)
}

func (o LogOptions) withDefaults() LogOptions {
	if o.CompactMinGarbage == 0 {
		o.CompactMinGarbage = 1 << 20
	}
	if o.CompactGarbageRatio == 0 {
		o.CompactGarbageRatio = 0.5
	}
	return o
}

// recLoc locates one live record in the file.
type recLoc struct {
	off  int64 // record start
	size int64 // total framed size
	vOff int64 // value start
	vLen int64
}

const (
	opPut    = 1
	opDelete = 2

	recHeader = 4 + 1 + 4 + 4 // crc + op + key len + value len

	// maxRecLen bounds a single record (1 GiB): anything larger in a header
	// is corruption, not data.
	maxRecLen = 1 << 30

	logFileName = "store.log"
)

// OpenLog opens (creating if needed) the log backend rooted at dir,
// replaying the existing log into the key directory and discarding any
// torn tail left by a crash.
func OpenLog(dir string, opts LogOptions) (*Log, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("store: opening log dir: %w", err)
	}
	s := &Log{
		opts:      opts.withDefaults(),
		path:      filepath.Join(dir, logFileName),
		tPath:     filepath.Join(dir, logFileName+".compact"),
		dir:       make(map[string]recLoc),
		failAfter: -1,
	}
	// A leftover temp file means a crash mid-compaction; the real log is
	// intact, the temp is garbage.
	_ = os.Remove(s.tPath)
	f, err := os.OpenFile(s.path, os.O_RDWR|os.O_CREATE, 0o644)
	if err != nil {
		return nil, fmt.Errorf("store: opening log: %w", err)
	}
	s.f = f
	if err := s.replay(); err != nil {
		f.Close()
		return nil, err
	}
	return s, nil
}

// replay scans the log sequentially, rebuilding the key directory and
// truncating at the first torn or corrupt record, then builds the key
// index with one sort.
func (s *Log) replay() error {
	size, err := s.f.Seek(0, io.SeekEnd)
	if err != nil {
		return fmt.Errorf("store: sizing log: %w", err)
	}
	r := io.NewSectionReader(s.f, 0, size)
	var off int64
	hdr := make([]byte, recHeader)
	var body []byte
	for off < size {
		if size-off < recHeader {
			break // torn header
		}
		if _, err := io.ReadFull(r, hdr); err != nil {
			return fmt.Errorf("store: reading log: %w", err)
		}
		crc := binary.BigEndian.Uint32(hdr[0:4])
		op := hdr[4]
		kLen := int64(binary.BigEndian.Uint32(hdr[5:9]))
		vLen := int64(binary.BigEndian.Uint32(hdr[9:13]))
		bodyLen := kLen + vLen
		if kLen > maxRecLen || vLen > maxRecLen || bodyLen > size-off-recHeader {
			break // impossible length: torn or corrupt tail
		}
		if int64(cap(body)) < bodyLen {
			body = make([]byte, bodyLen)
		}
		body = body[:bodyLen]
		if _, err := io.ReadFull(r, body); err != nil {
			break // torn body
		}
		h := crc32.NewIEEE()
		h.Write(hdr[4:])
		h.Write(body)
		if h.Sum32() != crc {
			break // corrupt record: treat as torn tail
		}
		total := recHeader + bodyLen
		key := string(body[:kLen])
		s.applyReplayed(key, op, recLoc{off: off, size: total, vOff: off + recHeader + kLen, vLen: vLen})
		off += total
	}
	if off < size {
		if err := s.f.Truncate(off); err != nil {
			return fmt.Errorf("store: truncating torn tail: %w", err)
		}
	}
	s.off = off
	s.keys = newKeyIndex(slices.Collect(maps.Keys(s.dir)))
	return nil
}

// applyReplayed folds one replayed record into the directory and byte
// accounting; the key index is the caller's.
func (s *Log) applyReplayed(key string, op byte, loc recLoc) {
	if old, ok := s.dir[key]; ok {
		s.dead += old.size
		s.live -= old.size
		delete(s.dir, key)
	}
	if op == opPut {
		s.dir[key] = loc
		s.live += loc.size
	} else {
		s.dead += loc.size // the tombstone itself is garbage
	}
}

// appendFrame appends one framed record (CRC computed last) to buf.
func appendFrame(buf []byte, op byte, key, value []byte) []byte {
	n := len(buf)
	buf = append(buf, 0, 0, 0, 0, op)
	buf = binary.BigEndian.AppendUint32(buf, uint32(len(key)))
	buf = binary.BigEndian.AppendUint32(buf, uint32(len(value)))
	buf = append(buf, key...)
	buf = append(buf, value...)
	crc := crc32.ChecksumIEEE(buf[n+4:])
	binary.BigEndian.PutUint32(buf[n:n+4], crc)
	return buf
}

// write appends buf at the current offset, honoring the fault-injection
// hook. On success the append offset advances by len(buf).
func (s *Log) write(buf []byte) error {
	n := len(buf)
	if s.failAfter >= 0 {
		if int64(n) > s.failAfter {
			// Simulated crash: part of the record reaches the file, the ack
			// never happens, and every later operation fails.
			if s.failAfter > 0 {
				_, _ = s.f.WriteAt(buf[:s.failAfter], s.off)
			}
			s.failAfter = -1
			s.closed = true
			return fmt.Errorf("store: injected write fault")
		}
		s.failAfter -= int64(n)
	}
	if _, err := s.f.WriteAt(buf, s.off); err != nil {
		return fmt.Errorf("store: appending record: %w", err)
	}
	s.off += int64(n)
	return nil
}

// Get implements KV: the value bytes are read back from the file.
func (s *Log) Get(key []byte) ([]byte, bool, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return nil, false, ErrClosed
	}
	s.cnt.gets.Add(1)
	loc, ok := s.dir[string(key)]
	if !ok {
		s.cnt.getMisses.Add(1)
		return nil, false, nil
	}
	v, err := s.readValueLocked(loc)
	if err != nil {
		return nil, false, err
	}
	return v, true, nil
}

func (s *Log) readValueLocked(loc recLoc) ([]byte, error) {
	v := make([]byte, loc.vLen)
	if _, err := s.f.ReadAt(v, loc.vOff); err != nil {
		return nil, fmt.Errorf("store: reading value: %w", err)
	}
	return v, nil
}

// Put implements KV.
func (s *Log) Put(key, value []byte) error {
	return s.Batch([]Op{{Key: key, Value: value}})
}

// Delete implements KV: a tombstone record is appended so the deletion
// survives restart.
func (s *Log) Delete(key []byte) error {
	return s.Batch([]Op{{Key: key, Delete: true}})
}

// Batch implements KV: all records land in one contiguous write, so a crash
// either keeps a prefix of the batch or tears the record it died in —
// replay discards the tear and keeps the prefix.
func (s *Log) Batch(ops []Op) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return ErrClosed
	}
	var buf []byte
	start := s.off
	type staged struct {
		key string
		op  byte
		loc recLoc
	}
	st := make([]staged, 0, len(ops))
	// pending tracks key existence as earlier ops of this batch apply, so a
	// delete after a put of the same key still writes its tombstone.
	var pending map[string]bool
	exists := func(k string) bool {
		if pending != nil {
			if v, ok := pending[k]; ok {
				return v
			}
		}
		_, ok := s.dir[k]
		return ok
	}
	for _, op := range ops {
		kind := byte(opPut)
		val := op.Value
		if op.Delete {
			kind = opDelete
			val = nil
			if !exists(string(op.Key)) {
				// Deleting an absent key: no tombstone needed.
				s.cnt.deletes.Add(1)
				continue
			}
		}
		if pending == nil {
			pending = make(map[string]bool, len(ops))
		}
		pending[string(op.Key)] = kind == opPut
		recOff := start + int64(len(buf))
		buf = appendFrame(buf, kind, op.Key, val)
		st = append(st, staged{
			key: string(op.Key),
			op:  kind,
			loc: recLoc{
				off:  recOff,
				size: start + int64(len(buf)) - recOff,
				vOff: recOff + recHeader + int64(len(op.Key)),
				vLen: int64(len(val)),
			},
		})
	}
	if len(buf) == 0 {
		return nil
	}
	if err := s.timed("append", func() error { return s.write(buf) }); err != nil {
		return err
	}
	for _, rec := range st {
		if rec.op == opPut {
			s.cnt.puts.Add(1)
		} else {
			s.cnt.deletes.Add(1)
		}
		if rec.op == opPut {
			s.keys.insert(rec.key)
		} else {
			s.keys.delete(rec.key)
		}
		s.applyReplayed(rec.key, rec.op, rec.loc)
	}
	if s.opts.SyncEvery {
		if err := s.timed("fsync", s.f.Sync); err != nil {
			return fmt.Errorf("store: sync: %w", err)
		}
	}
	s.maybeCompactLocked()
	return nil
}

// timed runs fn, reporting its duration to the Observe hook when one is
// configured (failures are timed too — a slow failing fsync is exactly
// what a latency histogram should show).
func (s *Log) timed(op string, fn func() error) error {
	if s.opts.Observe == nil {
		return fn()
	}
	start := time.Now()
	err := fn()
	s.opts.Observe(op, time.Since(start))
	return err
}

// Scan implements KV: ascending key order within the prefix. Values are
// read back per record, so concurrent writes and compactions are safe.
func (s *Log) Scan(prefix []byte, fn func(key, value []byte) bool) error {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return ErrClosed
	}
	s.cnt.scans.Add(1)
	keys := s.keys.withPrefix(string(prefix))
	s.mu.Unlock()
	for _, k := range keys {
		s.mu.Lock()
		if s.closed {
			s.mu.Unlock()
			return ErrClosed
		}
		loc, ok := s.dir[k]
		if !ok {
			s.mu.Unlock()
			continue
		}
		v, err := s.readValueLocked(loc)
		s.mu.Unlock()
		if err != nil {
			return err
		}
		s.cnt.scanned.Add(1)
		if !fn([]byte(k), v) {
			break
		}
	}
	return nil
}

// maybeCompactLocked compacts when garbage crosses the configured bounds.
func (s *Log) maybeCompactLocked() {
	min := s.opts.CompactMinGarbage
	if min < 0 || s.dead < min {
		return
	}
	total := s.live + s.dead
	if total == 0 || float64(s.dead) < s.opts.CompactGarbageRatio*float64(total) {
		return
	}
	// Compaction failures are not fatal to the write that triggered them —
	// the log is still correct, just bigger; the next write retries.
	_ = s.compactLocked()
}

// Compact rewrites the log to live records only, reclaiming dead bytes.
func (s *Log) Compact() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return ErrClosed
	}
	return s.compactLocked()
}

func (s *Log) compactLocked() error {
	return s.timed("compact", s.compactInnerLocked)
}

func (s *Log) compactInnerLocked() error {
	tmp, err := os.OpenFile(s.tPath, os.O_RDWR|os.O_CREATE|os.O_TRUNC, 0o644)
	if err != nil {
		return fmt.Errorf("store: compacting: %w", err)
	}
	defer os.Remove(s.tPath) // no-op after the successful rename
	newDir := make(map[string]recLoc, len(s.dir))
	var off int64
	var buf []byte
	// The rewrite keeps the key set, so it walks the index in key order and
	// leaves it as it is.
	for k := range s.keys.all() {
		loc := s.dir[k]
		v, err := s.readValueLocked(loc)
		if err != nil {
			tmp.Close()
			return err
		}
		buf = appendFrame(buf[:0], opPut, []byte(k), v)
		if _, err := tmp.WriteAt(buf, off); err != nil {
			tmp.Close()
			return fmt.Errorf("store: compacting: %w", err)
		}
		newDir[k] = recLoc{
			off:  off,
			size: int64(len(buf)),
			vOff: off + recHeader + int64(len(k)),
			vLen: loc.vLen,
		}
		off += int64(len(buf))
	}
	if err := tmp.Sync(); err != nil {
		tmp.Close()
		return fmt.Errorf("store: compacting: %w", err)
	}
	// Atomic swap: a crash before the rename leaves the old log authoritative.
	if err := os.Rename(s.tPath, s.path); err != nil {
		tmp.Close()
		return fmt.Errorf("store: compacting: %w", err)
	}
	old := s.f
	s.f = tmp
	old.Close()
	reclaimed := s.dead
	s.dir = newDir
	s.off = off
	s.live = off
	s.dead = 0
	s.compactions++
	s.compactedBytes += reclaimed
	return nil
}

// Sync implements KV: fsync to stable storage.
func (s *Log) Sync() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return ErrClosed
	}
	if err := s.timed("fsync", s.f.Sync); err != nil {
		return fmt.Errorf("store: sync: %w", err)
	}
	return nil
}

// Stats implements KV.
func (s *Log) Stats() Stats {
	st := s.cnt.snapshot()
	s.mu.Lock()
	st.Keys = int64(len(s.dir))
	st.LiveBytes = s.live
	st.DeadBytes = s.dead
	st.Compactions = s.compactions
	st.CompactedBytes = s.compactedBytes
	s.mu.Unlock()
	return st
}

// Close implements KV: flushes and releases the file.
func (s *Log) Close() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		s.f.Close()
		return nil
	}
	s.closed = true
	if err := s.f.Sync(); err != nil {
		s.f.Close()
		return fmt.Errorf("store: closing: %w", err)
	}
	return s.f.Close()
}
