// Dynamic instances: versioned data with incremental version-space
// maintenance. An Instance is no longer frozen at load time — InsertRows /
// DeleteRows append a Delta to its log and return the next version, and
// ApplyDelta carries the expensive derived state (the T-classes and, via
// Session.ApplyUpdate, each live session's engine) onto that version
// incrementally, re-examining only what the delta can actually flip
// instead of recomputing the product. The maintained state is
// bit-identical to a rebuild from scratch on the new version (the
// differential suites check this at every layer), so dynamic and static
// instances are indistinguishable to everything downstream.
package joininference

import (
	"fmt"

	"repro/internal/predicate"
	"repro/internal/product"
	"repro/internal/relation"
)

// Delta is one batch of row changes against an instance version: rows to
// append to R and P, and live row indexes to delete. Apply one with
// Instance.ApplyDelta (or the InsertRows/DeleteRows shorthands), then lift
// it through the derived layers with the package-level ApplyDelta.
type Delta = relation.Delta

// ErrStaleVersion reports a delta applied to an instance version that is
// no longer the tip of its history.
var ErrStaleVersion = relation.ErrStaleVersion

// InstanceUpdate is one applied delta lifted to the T-class layer: the two
// instance versions, the delta between them, and the maintained class set
// for the new version. Live sessions move onto it with Session.ApplyUpdate;
// a shared PolicyCache drops the old version's memoized trees with
// PolicyCache.ApplyUpdate.
type InstanceUpdate struct {
	// From and To are the instance before and after the delta
	// (To.Version() == From.Version()+1).
	From, To *Instance
	// Delta is the applied change.
	Delta Delta
	// Classes are the new version's T-classes, maintained incrementally —
	// sessions built fresh on To with WithPrecomputedClasses(Classes) and
	// sessions carried over with ApplyUpdate see identical class state.
	// Semijoin sessions on To share its witness table.
	Classes *ClassSet

	res *product.DeltaResult
}

// ApplyDelta applies d to inst (which must be the tip of its version
// history) and incrementally maintains the T-classes, touching only the
// classes the delta's product pairs land in or vanish from. cs must be the
// classes of inst (from PrecomputeClasses or a previous update's Classes).
// Errors wrap ErrStaleVersion when inst is no longer the tip.
func ApplyDelta(inst *Instance, cs *ClassSet, d Delta) (*InstanceUpdate, error) {
	if cs == nil {
		return nil, fmt.Errorf("joininference: ApplyDelta needs the current version's classes")
	}
	next, err := inst.ApplyDelta(d)
	if err != nil {
		return nil, fmt.Errorf("joininference: %w", err)
	}
	u := predicate.NewUniverse(inst)
	dr, err := product.ApplyDelta(inst, next, u, cs.classes, d)
	if err != nil {
		return nil, fmt.Errorf("joininference: %w", err)
	}
	return &InstanceUpdate{
		From:    inst,
		To:      next,
		Delta:   d.Clone(),
		Classes: &ClassSet{classes: dr.Classes, inst: next},
		res:     dr,
	}, nil
}

// Version returns the instance version this update produced.
func (upd *InstanceUpdate) Version() int64 { return upd.To.Version() }

// ClassesMinted returns how many T-classes the delta created.
func (upd *InstanceUpdate) ClassesMinted() int { return len(upd.res.Added) }

// ClassesRetired returns how many T-classes the delta emptied.
func (upd *InstanceUpdate) ClassesRetired() int { return upd.res.Retired }

// ApplyUpdate moves a live session onto the updated instance version,
// maintaining its engine incrementally: only classes the delta minted or
// whose settledness the delta could have flipped are re-examined. The
// session afterwards asks bit-identical questions to one snapshotted on
// the old version and resumed on the new one — examples whose rows the
// delta deleted are dropped from the sample (widening the version space;
// budget allowance returns with them), everything else is untouched, and
// the RND stream position is preserved.
//
// The session must be on upd.From (ErrStaleVersion otherwise); updates
// must be applied in version order. For semijoin sessions, deleting P rows
// can orphan a positive answer (its last witness disappears) — that
// surfaces as ErrInconsistent and the session is left unchanged on the old
// version, for the caller to retire. Deleted rows are never asked again.
//
// Sessions with WithCustomStrategy see the maintained engine through their
// StrategyView on the next question; a custom strategy that memoized view
// state across calls is the caller's to refresh.
func (s *Session) ApplyUpdate(upd *InstanceUpdate) error {
	if upd == nil {
		return fmt.Errorf("joininference: nil instance update")
	}
	if s.inst != upd.From {
		return fmt.Errorf("joininference: session is on version %d, update starts at %d: %w",
			s.inst.Version(), upd.From.Version(), ErrStaleVersion)
	}
	if err := s.kern.applyUpdate(upd, s.soft); err != nil {
		return err
	}
	s.inst = upd.To
	s.cfg.classes = upd.Classes
	s.asked = len(s.kern.transcript())
	return nil
}

// InstanceVersion returns the version of the instance the session currently
// runs over; ApplyUpdate advances it.
func (s *Session) InstanceVersion() int64 { return s.inst.Version() }

// PolicyInvalidation summarizes what one instance update did to a policy
// cache: how many of the old version's resident trees it dropped, and how
// many nodes they held.
type PolicyInvalidation struct {
	TreesDropped, NodesRetired int
}

// ApplyUpdate drops every resident decision tree of instanceID at the
// update's old version. Trees are keyed by instance version, so sessions on
// the new version look up fresh trees and recompute a missed decision on
// demand; no old-version node could serve them again.
func (pc *PolicyCache) ApplyUpdate(instanceID string, upd *InstanceUpdate) PolicyInvalidation {
	trees, nodes := pc.c.DropVersion(instanceID, upd.From.Version())
	return PolicyInvalidation{TreesDropped: trees, NodesRetired: nodes}
}
