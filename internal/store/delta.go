package store

import (
	"encoding/binary"
	"fmt"
	"math"

	"repro/internal/relation"
	"repro/internal/wire"
)

// Delta-log value format (version-tagged, varint-packed):
//
//	[1B version=1]
//	[uvarint len(InsertR)] tuples... [uvarint len(InsertP)] tuples...
//	[uvarint len(DeleteR)] uvarint index... [uvarint len(DeleteP)] uvarint index...
//	tuple: [uvarint arity] ([uvarint len] bytes)...
//
// Each record holds one relation.Delta; the key (DeltaKey) carries the
// instance name and the version the delta produced, so a prefix scan over
// DeltaLogPrefix replays an instance's history in order. Decoding is
// hardened against arbitrary bytes: corrupt, truncated, or oversized input
// returns ErrCorrupt — never a panic, never a silently misparsed delta
// (FuzzDecodeDelta drives this).
const deltaRecordVersion = 1

// Limits of the delta record: a value is at most maxDeltaStr bytes
// (generous for real data, small enough that a corrupt length cannot drive
// a huge allocation), a tuple at most maxDeltaArity fields, and a row index
// at most maxDeltaIndex. CheckDelta holds a delta's values and arities to
// them before it is appended (a delete index is already bounded by the
// instance's row count), so every record the log acknowledges decodes
// again.
const (
	maxDeltaStr   = 1 << 20
	maxDeltaArity = 1 << 16
	maxDeltaIndex = math.MaxInt32
)

// CheckDelta reports whether the delta fits the record limits. Callers
// check it before AppendDelta: a record beyond them would be written, then
// fail replay at every boot.
func CheckDelta(d relation.Delta) error {
	for _, ts := range [][]relation.Tuple{d.InsertR, d.InsertP} {
		for _, t := range ts {
			if len(t) > maxDeltaArity {
				return fmt.Errorf("store: tuple arity %d exceeds %d", len(t), maxDeltaArity)
			}
			for _, v := range t {
				if len(v) > maxDeltaStr {
					return fmt.Errorf("store: value of %d bytes exceeds %d", len(v), maxDeltaStr)
				}
			}
		}
	}
	return nil
}

// EncodeDelta appends the delta's binary form to buf.
func EncodeDelta(buf []byte, d relation.Delta) []byte {
	buf = append(buf, deltaRecordVersion)
	buf = appendDeltaTuples(buf, d.InsertR)
	buf = appendDeltaTuples(buf, d.InsertP)
	buf = appendDeltaIndexes(buf, d.DeleteR)
	buf = appendDeltaIndexes(buf, d.DeleteP)
	return buf
}

func appendDeltaTuples(buf []byte, ts []relation.Tuple) []byte {
	buf = binary.AppendUvarint(buf, uint64(len(ts)))
	for _, t := range ts {
		buf = binary.AppendUvarint(buf, uint64(len(t)))
		for _, v := range t {
			buf = wire.AppendString(buf, v)
		}
	}
	return buf
}

func appendDeltaIndexes(buf []byte, idx []int) []byte {
	buf = binary.AppendUvarint(buf, uint64(len(idx)))
	for _, i := range idx {
		buf = binary.AppendUvarint(buf, uint64(i))
	}
	return buf
}

// DecodeDelta parses a delta-log record. Corrupt input of any shape
// returns an error wrapping ErrCorrupt, never a panic.
func DecodeDelta(data []byte) (relation.Delta, error) {
	d := wire.NewDec(data, ErrCorrupt)
	if v := d.Byte(); v != deltaRecordVersion {
		d.Failf("delta record version %d", v)
	}
	rd := relation.Delta{
		InsertR: decodeDeltaTuples(&d),
		InsertP: decodeDeltaTuples(&d),
		DeleteR: decodeDeltaIndexes(&d),
		DeleteP: decodeDeltaIndexes(&d),
	}
	if err := d.Finish(); err != nil {
		return relation.Delta{}, err
	}
	return rd, nil
}

func decodeDeltaTuples(d *wire.Dec) []relation.Tuple {
	var ts []relation.Tuple
	for n := d.Count(1); n > 0 && d.Err() == nil; n-- { // a tuple takes ≥ 1 byte
		t := make(relation.Tuple, d.Uvarint(uint64(min(maxDeltaArity, d.Len()))))
		for j := range t {
			t[j] = d.Str(maxDeltaStr)
		}
		ts = append(ts, t)
	}
	return ts
}

func decodeDeltaIndexes(d *wire.Dec) []int {
	var idx []int
	for n := d.Count(1); n > 0 && d.Err() == nil; n-- {
		idx = append(idx, int(d.Uvarint(maxDeltaIndex)))
	}
	return idx
}

// AppendDelta persists the delta that produced the given version of the
// instance, under an order-preserving (instance, version) key.
func AppendDelta(kv KV, instance string, version int64, d relation.Delta) error {
	return kv.Put(DeltaKey(instance, version), EncodeDelta(nil, d))
}

// ReplayDeltaLog scans the instance's delta log in version order, calling
// fn for each record with version > from. It verifies the versions it
// visits are contiguous — a gap means lost records, and replaying past one
// would silently reconstruct the wrong instance.
func ReplayDeltaLog(kv KV, instance string, from int64, fn func(version int64, d relation.Delta) error) error {
	next := from + 1
	var replayErr error
	err := kv.Scan(DeltaLogPrefix(instance), func(key, value []byte) bool {
		name, version, err := ParseDeltaKey(key)
		if err != nil || name != instance {
			// Another instance's log whose escaped name happens to extend
			// this prefix; key escaping makes this impossible, but skipping
			// is the safe reaction to a malformed key either way.
			return true
		}
		if version < next {
			return true
		}
		if version > next {
			replayErr = fmt.Errorf("%w: delta log for %q jumps from version %d to %d", ErrCorrupt, instance, next-1, version)
			return false
		}
		d, err := DecodeDelta(value)
		if err != nil {
			replayErr = fmt.Errorf("delta log for %q at version %d: %w", instance, version, err)
			return false
		}
		if err := fn(version, d); err != nil {
			replayErr = err
			return false
		}
		next++
		return true
	})
	if replayErr != nil {
		return replayErr
	}
	return err
}
