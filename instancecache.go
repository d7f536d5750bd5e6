package joininference

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"math"

	"repro/internal/predicate"
	"repro/internal/product"
	"repro/internal/relation"
	"repro/internal/wire"
)

// Instance-cache wire form: a loaded instance together with its
// precomputed T-classes, as the registry stores it so boot skips both the
// source (CSV parse, TPC-H generation) and the product scan. Layout:
//
//	"JICA" | 1B version | relation R | relation P |
//	uvarint instance version | tombstones R | tombstones P |
//	uvarint class count | classes: uvarint RI | uvarint PI | uvarint Count
//	relation: uvarint len(name) | name | uvarint arity |
//	          attrs (uvarint len | bytes)... | uvarint rows | values...
//	tombstones: uvarint count | uvarint row index... (ascending)
//
// Format 2 added the instance version and the tombstone lists, so a cached
// dynamic instance restores at the version it was written (the registry
// then replays any newer delta-log records on top). Relations serialize
// every row including dead ones — row indexes are stable across versions
// and the T-class representatives reference them. Format-1 records fail
// decode with ErrBadSnapshot and fall back to the source, exactly like a
// corrupt record.
//
// Class predicates (Theta) are not serialized: each is recomputed from its
// representative tuple on decode — T(t) is deterministic and cheap, and it
// keeps the format free of the bitset's in-memory layout. The classes'
// stored order is their canonical order and is preserved exactly, so
// sessions over a decoded entry ask bit-identical questions.
//
// The cache is keyed by registry name; like the policy cache, a name must
// uniquely identify the instance's data — re-registering different data
// under an old name requires clearing the store (or a new name).
var instanceCacheMagic = []byte("JICA")

const instanceCacheVersion = 2

// Limits of the cache record. Any single string (schema name, attribute,
// value) is bounded: generous for real data, small enough that a corrupt
// length cannot drive a huge allocation. Ingested values meet the same
// bound through the delta log's limit (store.CheckDelta); a source value
// beyond it only makes the record fail decode, and boot falls back to the
// source.
const (
	maxInstanceCacheStr   = 1 << 20
	maxInstanceCacheArity = 1 << 16
	maxInstanceCacheRows  = math.MaxUint32
)

// EncodeInstanceCache builds the binary cache record for an instance and
// its precomputed classes.
func EncodeInstanceCache(inst *Instance, cs *ClassSet) []byte {
	buf := append([]byte(nil), instanceCacheMagic...)
	buf = append(buf, instanceCacheVersion)
	buf = appendRelation(buf, inst.R)
	buf = appendRelation(buf, inst.P)
	buf = binary.AppendUvarint(buf, uint64(inst.Version()))
	buf = appendTombstones(buf, inst.DeadR())
	buf = appendTombstones(buf, inst.DeadP())
	buf = binary.AppendUvarint(buf, uint64(len(cs.classes)))
	for _, c := range cs.classes {
		buf = binary.AppendUvarint(buf, uint64(c.RI))
		buf = binary.AppendUvarint(buf, uint64(c.PI))
		buf = binary.AppendUvarint(buf, uint64(c.Count))
	}
	return buf
}

func appendRelation(buf []byte, r *Relation) []byte {
	buf = wire.AppendString(buf, r.Schema.Name)
	buf = binary.AppendUvarint(buf, uint64(r.Schema.Arity()))
	for _, a := range r.Schema.Attributes {
		buf = wire.AppendString(buf, a)
	}
	buf = binary.AppendUvarint(buf, uint64(r.Len()))
	for _, t := range r.Tuples {
		for _, v := range t {
			buf = wire.AppendString(buf, v)
		}
	}
	return buf
}

// appendTombstones writes a dead-row bitmap as a count plus the ascending
// dead indexes — compact for the common sparse case.
func appendTombstones(buf []byte, dead []bool) []byte {
	n := 0
	for _, d := range dead {
		if d {
			n++
		}
	}
	buf = binary.AppendUvarint(buf, uint64(n))
	for i, d := range dead {
		if d {
			buf = binary.AppendUvarint(buf, uint64(i))
		}
	}
	return buf
}

// DecodeInstanceCache parses a cache record back into an instance and its
// class set, revalidating schemas, arities and representative indexes and
// recomputing each class's Theta. Corrupt or version-skewed input fails
// with an error wrapping ErrBadSnapshot — never a panic.
func DecodeInstanceCache(data []byte) (*Instance, *ClassSet, error) {
	if !bytes.HasPrefix(data, instanceCacheMagic) {
		return nil, nil, fmt.Errorf("%w: not an instance cache record", ErrBadSnapshot)
	}
	d := wire.NewDec(data[len(instanceCacheMagic):], ErrBadSnapshot)
	if v := d.Byte(); v != instanceCacheVersion {
		d.Failf("instance cache version %d not supported", v)
	}
	r, p := decodeRelation(&d), decodeRelation(&d)
	if d.Err() != nil {
		return nil, nil, d.Err()
	}
	version := int64(d.Uvarint(math.MaxInt64))
	deadR, deadP := decodeTombstones(&d, r.Len()), decodeTombstones(&d, p.Len())
	if d.Err() != nil {
		return nil, nil, d.Err()
	}
	inst, err := relation.RestoreInstance(r, p, version, deadR, deadP)
	if err != nil {
		return nil, nil, fmt.Errorf("%w: %v", ErrBadSnapshot, err)
	}
	u := predicate.NewUniverse(inst)
	classes := make([]*product.Class, d.Count(3)) // a class takes ≥ 3 bytes
	for i := range classes {
		ri := int(d.Uvarint(math.MaxInt32))
		pi := int(d.Uvarint(math.MaxInt32))
		n := int64(d.Uvarint(math.MaxInt64))
		if d.Err() != nil {
			return nil, nil, d.Err()
		}
		if ri >= r.Len() || pi >= p.Len() || n <= 0 || !inst.RAlive(ri) || !inst.PAlive(pi) {
			return nil, nil, fmt.Errorf("%w: class %d: representative (%d,%d) count %d out of range", ErrBadSnapshot, i, ri, pi, n)
		}
		classes[i] = &product.Class{Theta: predicate.T(u, r.Tuples[ri], p.Tuples[pi]), RI: ri, PI: pi, Count: n}
	}
	if err := d.Finish(); err != nil {
		return nil, nil, err
	}
	return inst, &ClassSet{classes: classes, inst: inst}, nil
}

// decodeRelation reads one relation; once d has failed its result is
// meaningless (possibly nil).
func decodeRelation(d *wire.Dec) *Relation {
	name := d.Str(maxInstanceCacheStr)
	attrs := make([]string, d.Uvarint(maxInstanceCacheArity))
	for i := range attrs {
		attrs[i] = d.Str(maxInstanceCacheStr)
	}
	if d.Err() != nil {
		return nil
	}
	schema, err := relation.NewSchema(name, attrs...)
	if err != nil {
		d.Failf("%v", err)
		return nil
	}
	rel := relation.NewRelation(schema)
	for rows := d.Uvarint(maxInstanceCacheRows); rows > 0 && d.Err() == nil; rows-- {
		t := make(relation.Tuple, len(attrs))
		for j := range t {
			t[j] = d.Str(maxInstanceCacheStr)
		}
		rel.Tuples = append(rel.Tuples, t) // the schema's arity by construction
	}
	return rel
}

// decodeTombstones reads a tombstone list back into a bitmap (nil when
// empty), validating indexes are ascending and in range.
func decodeTombstones(d *wire.Dec, rows int) []bool {
	n := d.Uvarint(uint64(rows))
	if n == 0 || d.Err() != nil {
		return nil
	}
	dead := make([]bool, rows)
	for prev := -1; n > 0 && d.Err() == nil; n-- {
		idx := int(d.Uvarint(uint64(rows - 1)))
		if idx <= prev {
			d.Failf("tombstone index %d out of order", idx)
		}
		dead[idx] = true
		prev = idx
	}
	return dead
}
