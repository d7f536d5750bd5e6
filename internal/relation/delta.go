// Dynamic instances. The paper's setting freezes the database for the
// lifetime of an inference session, but a deployed oracle sees inserts and
// deletes mid-session. This file makes Instance a versioned, immutable
// value: ApplyDelta returns a *new* Instance one version ahead, sharing
// tuple storage with its predecessor, and advances the tip of the version
// chain it shares with every other version of the same data.
//
// Row indexes are stable across versions: deletes tombstone a row instead
// of compacting, and inserts append past the old length. An old version
// therefore never observes rows added later (its slice headers stop at its
// own length), and any (ri, pi) pair valid at version v names the same
// tuples at every later version — the property every layer above
// (T-classes, samples, transcripts, policy trees) relies on when a delta is
// propagated instead of recomputed.
package relation

import (
	"errors"
	"fmt"
	"sync"
)

// Delta is one batch of row changes: tuples to append to R and P, and
// current row indexes to delete. Deletions refer to the version the delta
// is applied to; inserted rows get the next free indexes, R rows first.
type Delta struct {
	InsertR []Tuple
	InsertP []Tuple
	DeleteR []int
	DeleteP []int
}

// Empty reports whether the delta changes nothing.
func (d Delta) Empty() bool {
	return len(d.InsertR) == 0 && len(d.InsertP) == 0 && len(d.DeleteR) == 0 && len(d.DeleteP) == 0
}

// Clone returns a deep copy of the delta.
func (d Delta) Clone() Delta {
	out := Delta{}
	if len(d.InsertR) > 0 {
		out.InsertR = make([]Tuple, len(d.InsertR))
		for i, t := range d.InsertR {
			out.InsertR[i] = t.Clone()
		}
	}
	if len(d.InsertP) > 0 {
		out.InsertP = make([]Tuple, len(d.InsertP))
		for i, t := range d.InsertP {
			out.InsertP[i] = t.Clone()
		}
	}
	out.DeleteR = append([]int(nil), d.DeleteR...)
	out.DeleteP = append([]int(nil), d.DeleteP...)
	return out
}

// ErrStaleVersion is returned by ApplyDelta when the receiver is not the
// newest version of its chain. History is linear by construction: versions
// share tuple backing arrays, so only the tip may extend them.
var ErrStaleVersion = errors.New("relation: delta applied to a stale version (not the chain tip)")

// chain is the state shared by every version of one instance: the tip
// version, which only ApplyDelta on the tip advances.
type chain struct {
	mu  sync.Mutex
	tip int64
}

// chainInitMu guards lazy attachment of a chain to instances built as
// literals (common in tests: &Instance{R: r, P: p} has no chain until the
// first ApplyDelta or SameChain touches it).
var chainInitMu sync.Mutex

func (i *Instance) chainOrInit() *chain {
	chainInitMu.Lock()
	defer chainInitMu.Unlock()
	if i.chain == nil {
		i.chain = &chain{tip: i.version}
	}
	return i.chain
}

// SameChain reports whether o is a version of the same data as i: one was
// derived from the other through ApplyDelta, directly or in steps.
// RestoreInstance starts a chain of its own.
func (i *Instance) SameChain(o *Instance) bool { return i.chainOrInit() == o.chainOrInit() }

// Version returns the instance's position in its version chain. Instances
// built by NewInstance (or as literals) are version 0.
func (i *Instance) Version() int64 { return i.version }

// RAlive reports whether R row ri is live at this version.
func (i *Instance) RAlive(ri int) bool { return i.deadR == nil || !i.deadR[ri] }

// PAlive reports whether P row pi is live at this version.
func (i *Instance) PAlive(pi int) bool { return i.deadP == nil || !i.deadP[pi] }

// LiveR returns the number of live R rows.
func (i *Instance) LiveR() int { return i.R.Len() - i.nDeadR }

// LiveP returns the number of live P rows.
func (i *Instance) LiveP() int { return i.P.Len() - i.nDeadP }

// DeadR returns a copy of the R tombstone bitmap (nil when nothing is
// dead), indexed like R.Tuples.
func (i *Instance) DeadR() []bool {
	if i.nDeadR == 0 {
		return nil
	}
	return append([]bool(nil), i.deadR...)
}

// DeadP returns a copy of the P tombstone bitmap (nil when nothing is
// dead), indexed like P.Tuples.
func (i *Instance) DeadP() []bool {
	if i.nDeadP == 0 {
		return nil
	}
	return append([]bool(nil), i.deadP...)
}

// RestoreInstance rebuilds an instance at a given version with tombstone
// bitmaps, as persisted by a snapshot. The bitmaps may be nil (all rows
// live) or must match the relations' lengths. The restored instance starts
// a fresh chain whose tip is its version, ready to replay later deltas.
func RestoreInstance(r, p *Relation, version int64, deadR, deadP []bool) (*Instance, error) {
	inst, err := NewInstance(r, p)
	if err != nil {
		return nil, err
	}
	if version < 0 {
		return nil, fmt.Errorf("relation: negative instance version %d", version)
	}
	if deadR != nil && len(deadR) != r.Len() {
		return nil, fmt.Errorf("relation: R tombstone bitmap has %d entries for %d rows", len(deadR), r.Len())
	}
	if deadP != nil && len(deadP) != p.Len() {
		return nil, fmt.Errorf("relation: P tombstone bitmap has %d entries for %d rows", len(deadP), p.Len())
	}
	inst.version = version
	inst.chain = &chain{tip: version}
	inst.deadR = append([]bool(nil), deadR...)
	inst.deadP = append([]bool(nil), deadP...)
	for _, d := range inst.deadR {
		if d {
			inst.nDeadR++
		}
	}
	for _, d := range inst.deadP {
		if d {
			inst.nDeadP++
		}
	}
	if inst.nDeadR == 0 {
		inst.deadR = nil
	}
	if inst.nDeadP == 0 {
		inst.deadP = nil
	}
	return inst, nil
}

// validateDelta checks arities, index ranges, liveness and duplicates.
func (i *Instance) validateDelta(d Delta) error {
	for _, t := range d.InsertR {
		if len(t) != i.R.Schema.Arity() {
			return fmt.Errorf("relation %s: inserted tuple arity %d does not match schema arity %d",
				i.R.Schema.Name, len(t), i.R.Schema.Arity())
		}
	}
	for _, t := range d.InsertP {
		if len(t) != i.P.Schema.Arity() {
			return fmt.Errorf("relation %s: inserted tuple arity %d does not match schema arity %d",
				i.P.Schema.Name, len(t), i.P.Schema.Arity())
		}
	}
	check := func(name string, idxs []int, n int, alive func(int) bool) error {
		seen := make(map[int]bool, len(idxs))
		for _, ri := range idxs {
			if ri < 0 || ri >= n {
				return fmt.Errorf("relation %s: delete index %d out of range [0, %d)", name, ri, n)
			}
			if !alive(ri) {
				return fmt.Errorf("relation %s: row %d is already deleted", name, ri)
			}
			if seen[ri] {
				return fmt.Errorf("relation %s: row %d deleted twice in one delta", name, ri)
			}
			seen[ri] = true
		}
		return nil
	}
	if err := check(i.R.Schema.Name, d.DeleteR, i.R.Len(), i.RAlive); err != nil {
		return err
	}
	return check(i.P.Schema.Name, d.DeleteP, i.P.Len(), i.PAlive)
}

// ValidateDelta reports whether ApplyDelta would accept d on this version
// — the receiver is the chain tip and d passes the arity, index-range,
// liveness and duplicate checks — without applying it. Callers that must
// record a delta durably before the chain advances validate first.
func (i *Instance) ValidateDelta(d Delta) error {
	if err := i.validateDelta(d); err != nil {
		return err
	}
	c := i.chainOrInit()
	c.mu.Lock()
	defer c.mu.Unlock()
	if i.version != c.tip {
		return fmt.Errorf("%w: version %d, tip is %d", ErrStaleVersion, i.version, c.tip)
	}
	return nil
}

// ApplyDelta applies one batch of changes and returns the instance at the
// next version. The receiver is unchanged and stays fully usable; the two
// versions share tuple storage. ApplyDelta is only valid on the chain tip
// (ErrStaleVersion otherwise), which keeps history linear, and is safe to
// race with readers of any version.
func (i *Instance) ApplyDelta(d Delta) (*Instance, error) {
	if err := i.validateDelta(d); err != nil {
		return nil, err
	}
	d = d.Clone() // the new version's rows must not alias caller storage
	c := i.chainOrInit()
	c.mu.Lock()
	defer c.mu.Unlock()
	if i.version != c.tip {
		return nil, fmt.Errorf("%w: version %d, tip is %d", ErrStaleVersion, i.version, c.tip)
	}

	grow := func(rel *Relation, ins []Tuple, dead []bool, del []int) (*Relation, []bool, int) {
		n := rel.Len() + len(ins)
		var nd []bool
		if dead != nil || len(del) > 0 {
			nd = make([]bool, n)
			copy(nd, dead)
			for _, ri := range del {
				nd[ri] = true
			}
		}
		nDead := 0
		for _, x := range nd {
			if x {
				nDead++
			}
		}
		// Tip-only append: old versions' slice headers never reach the
		// new rows, so sharing (or reallocating) the backing array is safe.
		tuples := rel.Tuples
		for _, t := range ins {
			tuples = append(tuples, t)
		}
		if nDead == 0 {
			nd = nil
		}
		return &Relation{Schema: rel.Schema, Tuples: tuples}, nd, nDead
	}
	nr, ndr, nDeadR := grow(i.R, d.InsertR, i.deadR, d.DeleteR)
	np, ndp, nDeadP := grow(i.P, d.InsertP, i.deadP, d.DeleteP)
	ni := &Instance{
		R: nr, P: np,
		version: i.version + 1,
		deadR:   ndr, deadP: ndp,
		nDeadR: nDeadR, nDeadP: nDeadP,
		chain: c,
	}
	c.tip = ni.version
	return ni, nil
}

// InsertRows appends rows to R and P, returning the next version.
func (i *Instance) InsertRows(rRows, pRows []Tuple) (*Instance, error) {
	return i.ApplyDelta(Delta{InsertR: rRows, InsertP: pRows})
}

// DeleteRows tombstones the given current row indexes, returning the next
// version. Indexes of later versions' rows are unchanged.
func (i *Instance) DeleteRows(rIdx, pIdx []int) (*Instance, error) {
	return i.ApplyDelta(Delta{DeleteR: rIdx, DeleteP: pIdx})
}
