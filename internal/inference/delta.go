// Incremental engine maintenance under an instance delta. The engine's
// per-class state is a function of (class Theta, sample): settled[ci] holds
// iff the class is labeled or certain under the current sample — the
// invariant Label's sweeps maintain. A delta therefore only has to
// re-examine what it can actually flip:
//
//   - Surviving classes keep their Theta, so while the sample is intact
//     (no example's row was deleted) their certainty is untouched — only
//     classes minted by the delta need the certainty test.
//   - Deleting rows can drop examples. Certainty is anti-monotone under
//     example removal (T(S+) only grows, witnesses only disappear), so a
//     class that was informative stays informative; only the classes those
//     examples were settling — the settled-but-now-unlabeled ones — are
//     re-tested, exactly Lemma 3.4's witnesses in reverse. The kernel is
//     rebuilt from the surviving examples, so a negative it had pruned as
//     dominated by a dropped one counts again.
//
// The result is state-identical to rebuilding the engine from scratch on
// the new version and replaying the surviving examples (delta_test.go
// checks differentially).
package inference

import (
	"fmt"

	"repro/internal/certainty"
	"repro/internal/product"
	"repro/internal/relation"
	"repro/internal/sample"
)

// ApplyDelta moves the engine onto the next instance version, given the
// maintained T-classes from product.ApplyDelta. It returns the number of
// sample examples dropped because a row they reference was deleted.
//
// Removing examples can only widen the version space, never contradict it,
// so ApplyDelta does not fail on an honest history; the error covers
// mismatched arguments only.
func (e *Engine) ApplyDelta(newInst *relation.Instance, dr *product.DeltaResult) (dropped int, err error) {
	if newInst.Version() != e.Inst.Version()+1 {
		return 0, fmt.Errorf("inference: delta target version %d does not follow %d", newInst.Version(), e.Inst.Version())
	}
	if len(dr.Remap) != len(e.classes) {
		return 0, fmt.Errorf("inference: delta remap covers %d classes, engine has %d", len(dr.Remap), len(e.classes))
	}

	nl := make([]int8, len(dr.Classes))
	ns := make([]bool, len(dr.Classes))
	for oi, ni := range dr.Remap {
		if ni >= 0 {
			nl[ni] = e.labeled[oi]
			ns[ni] = e.settled[oi]
		}
	}

	var droppedEx []sample.Example
	for _, ex := range e.s.Examples() {
		if !newInst.RAlive(ex.RI) || !newInst.PAlive(ex.PI) {
			droppedEx = append(droppedEx, ex)
		}
	}

	if len(droppedEx) == 0 {
		// Sample intact: survivors keep their certainty verbatim; only
		// minted classes are unknown.
		for _, ni := range dr.Added {
			ns[ni] = e.kern.Certain(dr.Classes[ni].Theta.Set.Words())
		}
	} else {
		// Rebuild the sample from the surviving examples, preserving
		// order, then re-test exactly the classes the dropped examples
		// could have been settling: the settled-but-unlabeled survivors
		// (anti-monotonicity keeps unsettled classes unsettled) plus the
		// minted ones.
		s2 := sample.New(e.U)
		k2 := certainty.New(s2.TPos().Set.Words())
		for _, ex := range e.s.Examples() {
			if !newInst.RAlive(ex.RI) || !newInst.PAlive(ex.PI) {
				continue
			}
			s2.Add(ex)
			if ex.Label == sample.Positive {
				k2.AddPositive(ex.Theta.Set.Words())
			} else {
				k2.AddNegative(ex.Theta.Set.Words())
			}
		}
		idx := product.NewIndex(e.U, dr.Classes)
		for _, ex := range droppedEx {
			if ni := idx.Find(ex.Theta); ni >= 0 {
				nl[ni] = 0
			}
		}
		for ni, c := range dr.Classes {
			if nl[ni] != 0 || !ns[ni] {
				continue
			}
			ns[ni] = k2.Certain(c.Theta.Set.Words())
		}
		for _, ni := range dr.Added {
			ns[ni] = k2.Certain(dr.Classes[ni].Theta.Set.Words())
		}
		if !s2.Consistent() {
			// Unreachable for a sample that was consistent before the
			// delta (removal cannot introduce inconsistency); guarded for
			// defense in depth.
			return len(droppedEx), ErrInconsistent
		}
		e.s = s2
		e.kern = k2
	}

	infCount := 0
	for _, done := range ns {
		if !done {
			infCount++
		}
	}
	e.Inst = newInst
	e.classes = dr.Classes
	e.labeled = nl
	e.settled = ns
	e.infCount = infCount
	return len(droppedEx), nil
}
