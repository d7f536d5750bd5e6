// Package store is the persistent storage subsystem: a small key-value
// interface with sortable binary keys, an in-memory backend for tests, and
// a dependency-free, crash-safe append-only log backend with periodic
// compaction.
//
// Everything durable in the serving stack goes through it — session
// snapshots (compact binary records instead of one JSON file per session),
// policy-tree nodes (so a warm decision tree pages into the byte-bounded
// LRU by prefix scan instead of living wholly in RAM), and the registry's
// precomputed instances and T-classes (so boot stops re-parsing CSV and
// re-generating TPC-H).
//
// # Key space
//
// Keys are binary and ordered bytewise; related records share a prefix so
// one Scan pages in a whole family. The codec in keys.go builds them:
// a one-byte table tag, then order-preserving encodings of the components
// (0x00-terminated escaped strings, big-endian sign-flipped int64s). Policy
// node keys end with the session's answer prefix, whose encoding is
// append-only — a child's key bytes extend its parent's — so "scan the
// subtree under this prefix" is exactly a bytewise prefix scan.
//
// # Durability contract
//
// Put/Delete/Batch are durable against process crash once they return: the
// log backend writes the framed record to the OS before acking, and on
// reopen a torn or corrupt tail (a crash mid-write) is detected by CRC and
// discarded — every acked write before it survives. Sync additionally
// flushes to stable storage (fsync) for machine-crash durability; callers
// invoke it at checkpoints (session persist, shutdown), not per write.
package store

import (
	"errors"
	"sync/atomic"
)

// Sentinel errors.
var (
	// ErrCorrupt reports a log record or encoded value that fails its
	// integrity checks — a CRC mismatch, an impossible length, a bad magic.
	// A corrupt tail on reopen is NOT an error (it is a torn write and is
	// discarded); ErrCorrupt surfaces only where data loss would otherwise
	// be silent.
	ErrCorrupt = errors.New("store: corrupt record")
	// ErrClosed reports use of a backend after Close.
	ErrClosed = errors.New("store: closed")
)

// Op is one operation of a Batch.
type Op struct {
	// Key is the record's key; Value nil with Delete true removes it.
	Key, Value []byte
	Delete     bool
}

// KV is the storage interface the rest of the stack programs against. All
// methods are safe for concurrent use. Keys and values passed in are copied
// (callers may reuse their buffers); values returned are private copies the
// caller owns.
type KV interface {
	// Get returns the value stored under key, and whether one exists.
	Get(key []byte) ([]byte, bool, error)
	// Put stores value under key, overwriting any previous value.
	Put(key, value []byte) error
	// Delete removes the key; deleting an absent key is a no-op.
	Delete(key []byte) error
	// Scan visits every record whose key starts with prefix, in ascending
	// key order, until fn returns false. fn's key and value are only valid
	// for the duration of the call.
	//
	// The keys to visit are fixed when the scan starts, and each value is
	// read when its key is reached; the store is not locked while fn runs,
	// so fn may call back into the store. A key deleted before the scan
	// reaches it is skipped (unless it was put back by then), and a key
	// added after the scan started is not visited.
	Scan(prefix []byte, fn func(key, value []byte) bool) error
	// Batch applies the operations in order as one append; on the log
	// backend they land in one contiguous write.
	Batch(ops []Op) error
	// Sync flushes acknowledged writes to stable storage (fsync).
	Sync() error
	// Stats returns a point-in-time snapshot of the backend's counters.
	Stats() Stats
	// Close releases the backend; further use fails with ErrClosed.
	Close() error
}

// Stats is a point-in-time view of a backend's counters.
type Stats struct {
	// Gets/Puts/Deletes/Scans count operations; GetMisses counts Gets that
	// found nothing; Scanned counts records visited by scans.
	Gets      int64 `json:"gets"`
	GetMisses int64 `json:"get_misses"`
	Puts      int64 `json:"puts"`
	Deletes   int64 `json:"deletes"`
	Scans     int64 `json:"scans"`
	Scanned   int64 `json:"scanned"`
	// Keys and LiveBytes are current residency (keys + live record bytes);
	// DeadBytes is log garbage awaiting compaction (0 on the memory
	// backend).
	Keys      int64 `json:"keys"`
	LiveBytes int64 `json:"live_bytes"`
	DeadBytes int64 `json:"dead_bytes"`
	// Compactions counts log rewrites; CompactedBytes the garbage they
	// reclaimed.
	Compactions    int64 `json:"compactions"`
	CompactedBytes int64 `json:"compacted_bytes"`
}

// counters are the atomic operation counters shared by the backends.
type counters struct {
	gets, getMisses, puts, deletes, scans, scanned atomic.Int64
}

func (c *counters) snapshot() Stats {
	return Stats{
		Gets:      c.gets.Load(),
		GetMisses: c.getMisses.Load(),
		Puts:      c.puts.Load(),
		Deletes:   c.deletes.Load(),
		Scans:     c.scans.Load(),
		Scanned:   c.scanned.Load(),
	}
}
