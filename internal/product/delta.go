// Incremental T-class maintenance. A row delta touches only the product
// pairs it creates or destroys: inserting an R row adds one pair per live
// P row, deleting a P row removes one pair per surviving R row. ApplyDelta
// walks exactly those pairs — in Decker's incremental-checking spirit,
// "check only what the update can flip" — merging each into an existing
// class or minting a new one, and never recomputes the classes the delta
// cannot reach. The result is bit-identical to rebuilding with
// ClassesIndexed on the new version: same classes, counts, representatives
// and canonical order (delta_test.go checks differentially).
package product

import (
	"fmt"

	"repro/internal/predicate"
	"repro/internal/relation"
)

// DeltaResult describes how one relation.Delta transformed a class list.
type DeltaResult struct {
	// Classes are the T-classes of the new version, in canonical order.
	// Classes untouched by the delta are shared (same *Class pointers)
	// with the old slice; touched ones are fresh copies, so the old slice
	// stays valid for readers of the old version.
	Classes []*Class
	// Added lists new-order indexes of classes minted by the delta.
	Added []int
	// Retired counts retired classes: old classes whose last product pair
	// the delta deleted.
	Retired int
}

// pairBefore orders product pairs row-major, the representative order.
func pairBefore(ri, pi, ri2, pi2 int) bool {
	if ri != ri2 {
		return ri < ri2
	}
	return pi < pi2
}

// ApplyDelta maintains oldClasses — the T-classes of oldInst, as produced
// by Classes/ClassesIndexed — under d, where newInst is oldInst.ApplyDelta(d).
// Both instance versions must be supplied because they share tuple storage;
// the caller (who performed the relation-level apply) has both at hand.
// oldClasses is never mutated.
func ApplyDelta(oldInst, newInst *relation.Instance, u *predicate.Universe, oldClasses []*Class, d relation.Delta) (*DeltaResult, error) {
	if newInst.Version() != oldInst.Version()+1 {
		return nil, fmt.Errorf("product: delta result version %d does not follow %d", newInst.Version(), oldInst.Version())
	}
	nOldR, nOldP := oldInst.R.Len(), oldInst.P.Len()

	// work[i] evolves from oldClasses[i]; cow marks private copies.
	work := make([]*Class, len(oldClasses))
	copy(work, oldClasses)
	cow := make([]bool, len(work))
	mutate := func(i int) *Class {
		if !cow[i] {
			cp := *work[i]
			work[i] = &cp
			cow[i] = true
		}
		return work[i]
	}
	// table maps T masks to work indexes; mask and kb are the scratch of
	// every pair's T and its table key.
	w := maskWords(u)
	table := newMaskTable(w, len(work))
	mask := make([]uint64, w)
	kb := make([]byte, 0, 8*w)
	for i, c := range work {
		c.Theta.Set.CopyWords(mask)
		table.put(mask, int32(i), kb)
	}

	delR := make([]bool, nOldR)
	for _, ri := range d.DeleteR {
		delR[ri] = true
	}
	delP := make([]bool, nOldP)
	for _, pi := range d.DeleteP {
		delP[pi] = true
	}
	// Tuples are read through newInst: indexes are stable and the new
	// headers cover both old and inserted rows.
	rT := newInst.R.Tuples
	pT := newInst.P.Tuples
	// classOf computes T(rT[ri], pT[pi]) into mask and looks it up.
	classOf := func(ri, pi int) (int, bool) {
		tMask(u, rT[ri], pT[pi], mask)
		i, ok := table.get(mask, kb)
		return int(i), ok
	}

	// repDirty marks classes whose representative pair was deleted; their
	// coordinates become the sentinel (maxInt, maxInt) — "no known
	// representative" — which loses every row-major comparison, so addPair's
	// minimum tracking just works. addedOf counts pairs the delta added to
	// each class.
	const noRep = int(^uint(0) >> 1)
	repDirty := make(map[int]bool)
	addedOf := make(map[int]int64)

	removePair := func(ri, pi int) error {
		i, ok := classOf(ri, pi)
		if !ok {
			return fmt.Errorf("product: deleted pair (%d,%d) has no class — stale class list", ri, pi)
		}
		c := mutate(i)
		c.Count--
		if c.Count < 0 {
			return fmt.Errorf("product: class count underflow at pair (%d,%d) — stale class list", ri, pi)
		}
		if c.RI == ri && c.PI == pi {
			repDirty[i] = true
			c.RI, c.PI = noRep, noRep
		}
		return nil
	}
	// Removed pairs: deleted R rows × old live P rows, plus surviving old
	// R rows × deleted P rows.
	for _, ri := range d.DeleteR {
		for pi := 0; pi < nOldP; pi++ {
			if !oldInst.PAlive(pi) {
				continue
			}
			if err := removePair(ri, pi); err != nil {
				return nil, err
			}
		}
	}
	for _, pi := range d.DeleteP {
		for ri := 0; ri < nOldR; ri++ {
			if !oldInst.RAlive(ri) || delR[ri] {
				continue
			}
			if err := removePair(ri, pi); err != nil {
				return nil, err
			}
		}
	}

	var added []int // work indexes of minted classes
	addPair := func(ri, pi int) {
		if i, ok := classOf(ri, pi); ok {
			c := mutate(i)
			c.Count++
			addedOf[i]++
			// The new pair may precede the current representative in
			// row-major order (e.g. an old row paired with a new one).
			if pairBefore(ri, pi, c.RI, c.PI) {
				c.RI, c.PI = ri, pi
			}
			return
		}
		c := &Class{Theta: thetaOf(mask), RI: ri, PI: pi, Count: 1}
		table.put(mask, int32(len(work)), kb)
		added = append(added, len(work))
		work = append(work, c)
		cow = append(cow, true)
	}
	// Added pairs in row-major order: surviving old R rows × new P rows
	// first would break row-major minimality bookkeeping only if addPair
	// didn't take the min — it does, so any order is correct; we still
	// iterate new-R-major for determinism.
	for ri := nOldR; ri < newInst.R.Len(); ri++ {
		for pi := 0; pi < newInst.P.Len(); pi++ {
			if !newInst.PAlive(pi) {
				continue
			}
			addPair(ri, pi)
		}
	}
	for ri := 0; ri < nOldR; ri++ {
		if !oldInst.RAlive(ri) || delR[ri] {
			continue
		}
		for pi := nOldP; pi < newInst.P.Len(); pi++ {
			if !newInst.PAlive(pi) {
				continue
			}
			addPair(ri, pi)
		}
	}

	// Re-anchor classes whose representative died. After addPair, such a
	// class holds either the sentinel (no added pair) or the row-major
	// minimum of its *added* pairs; if any of its old pairs survived, one
	// of those may be row-major-earlier still. Scan the old product's kept
	// pairs once in row-major order, early-exiting when every orphan with
	// surviving old pairs has met its first one, and keep the smaller of
	// (first surviving old pair, added minimum).
	pending := 0
	found := make(map[int]bool)
	for i := range repDirty {
		c := work[i] // already a copy (repDirty implies mutate)
		if c.Count == 0 || c.Count == addedOf[i] {
			// Retired, or living purely on added pairs (addPair's minimum
			// is already the representative).
			continue
		}
		found[i] = false
		pending++
	}
	if pending > 0 {
	scan:
		for ri := 0; ri < nOldR; ri++ {
			if !oldInst.RAlive(ri) || delR[ri] {
				continue
			}
			for pi := 0; pi < nOldP; pi++ {
				if !oldInst.PAlive(pi) || delP[pi] {
					continue
				}
				i, ok := classOf(ri, pi)
				if !ok {
					continue
				}
				if done, isOrphan := found[i]; isOrphan && !done {
					found[i] = true
					if pairBefore(ri, pi, work[i].RI, work[i].PI) {
						work[i].RI, work[i].PI = ri, pi
					}
					pending--
					if pending == 0 {
						break scan
					}
				}
			}
		}
	}
	for i := range repDirty {
		if c := work[i]; c.Count > 0 && c.RI == noRep {
			return nil, fmt.Errorf("product: class %d has count %d but no surviving pair — stale class list", i, c.Count)
		}
	}

	// Assemble the new canonical-order slice.
	res := &DeltaResult{}
	out := make([]*Class, 0, len(work))
	for _, c := range work {
		if c.Count > 0 {
			out = append(out, c)
		}
	}
	sortClasses(out)
	pos := make(map[*Class]int, len(out))
	for i, c := range out {
		pos[c] = i
	}
	res.Classes = out
	for i := range oldClasses {
		if work[i].Count == 0 {
			res.Retired++
		}
	}
	for _, wi := range added {
		if work[wi].Count > 0 {
			res.Added = append(res.Added, pos[work[wi]])
		}
	}
	return res, nil
}
