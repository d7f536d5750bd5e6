// Dynamic instances: versioned data whose T-classes are recomputed on
// every version. An Instance is no longer frozen at load time — InsertRows
// / DeleteRows return the next version, and ApplyDelta also builds that
// version's T-classes, with the same class kernel PrecomputeClasses runs:
// in the paper T is a function of one fixed instance (Section 3), so the
// classes of a version depend on nothing but its rows. A session reaches a
// version one way only, by replaying its surviving answers there
// (Session.MoveTo, ResumeSession): its state is a function of those
// answers' T values and the version's T-classes (Section 3.1).
package joininference

import (
	"fmt"

	"repro/internal/relation"
)

// Delta is one batch of row changes against an instance version: rows to
// append to R and P, and live row indexes to delete. Apply one with the
// package-level ApplyDelta, which also computes the new version's
// T-classes, or with Instance.ApplyDelta (and the InsertRows/DeleteRows
// shorthands) for the data alone.
type Delta = relation.Delta

// ErrStaleVersion reports a delta applied to an instance version that is
// no longer the tip of its history.
var ErrStaleVersion = relation.ErrStaleVersion

// InstanceUpdate is one applied delta lifted to the T-class layer: the two
// instance versions and the class set of the new version. Live sessions
// move onto it with Session.MoveTo(To, Classes); a shared PolicyCache drops
// the old version's memoized trees with PolicyCache.ApplyUpdate.
type InstanceUpdate struct {
	// From and To are the instance before and after the delta
	// (To.Version() == From.Version()+1).
	From, To *Instance
	// Classes are the new version's T-classes, as PrecomputeClasses(To)
	// computes them — sessions built fresh on To with
	// WithPrecomputedClasses(Classes) and sessions moved there with MoveTo
	// see identical class state. Semijoin sessions on To share its witness
	// table.
	Classes *ClassSet

	minted, retired int
}

// ApplyDelta applies d to inst (which must be the tip of its version
// history) and computes the new version's T-classes from scratch, as
// PrecomputeClasses does. cs must be the classes of inst (from
// PrecomputeClasses or a previous update's Classes): the update counts the
// classes the delta minted and retired against it. Errors wrap
// ErrStaleVersion when inst is no longer the tip.
func ApplyDelta(inst *Instance, cs *ClassSet, d Delta) (*InstanceUpdate, error) {
	switch {
	case cs == nil:
		return nil, fmt.Errorf("joininference: ApplyDelta needs the current version's classes")
	case cs.inst != inst:
		return nil, fmt.Errorf("joininference: ApplyDelta classes were not computed for version %d", inst.Version())
	}
	next, err := inst.ApplyDelta(d)
	if err != nil {
		return nil, fmt.Errorf("joininference: %w", err)
	}
	upd := &InstanceUpdate{From: inst, To: next, Classes: PrecomputeClasses(next)}
	// A class is minted when no class of the old version has its T, and
	// retired when no class of the new version does.
	old := cs.index()
	for _, c := range upd.Classes.classes {
		if old.Find(c.Theta) < 0 {
			upd.minted++
		}
	}
	upd.retired = cs.Len() - (upd.Classes.Len() - upd.minted)
	return upd, nil
}

// Version returns the instance version this update produced.
func (upd *InstanceUpdate) Version() int64 { return upd.To.Version() }

// ClassesMinted returns how many T-classes the new version has that the
// old one did not.
func (upd *InstanceUpdate) ClassesMinted() int { return upd.minted }

// ClassesRetired returns how many T-classes the old version had that the
// new one does not.
func (upd *InstanceUpdate) ClassesRetired() int { return upd.retired }

// MoveTo moves the session onto inst, a later version of the instance it
// runs over, whose per-version state is cs (nil computes it; otherwise cs
// must have been computed for inst, as InstanceUpdate.Classes and
// PrecomputeClasses are). It is the replay ResumeSession runs, over a
// fresh kernel: answers about a row inst deleted are dropped (widening the
// version space; budget allowance returns with them), soft beliefs whose
// class or row no longer exists are dropped, and everything else —
// configuration, policy cache, RND stream position — carries over, so the
// session asks bit-identical questions to one snapshotted before the move
// and resumed on inst. Any number of versions may be skipped in one move;
// deleted rows are never asked again.
//
// Moving to an older version fails with ErrStaleVersion, and a version of
// other data fails too. If the surviving answers admit no predicate on inst
// (a semijoin positive whose every witness was deleted) MoveTo fails with
// ErrInconsistent; on any failure the session is unchanged on its old
// version. Moving to the session's own version does nothing.
//
// Sessions with WithCustomStrategy see the new engine through their
// StrategyView on the next question; a custom strategy that memoized view
// state across calls is the caller's to refresh.
func (s *Session) MoveTo(inst *Instance, cs *ClassSet) error {
	switch {
	case inst == s.inst:
		return nil
	case inst == nil || !inst.SameChain(s.inst):
		return fmt.Errorf("joininference: MoveTo target is not a version of the session's instance")
	case inst.Version() < s.inst.Version():
		return fmt.Errorf("joininference: session is on version %d, cannot move back to %d: %w",
			s.inst.Version(), inst.Version(), ErrStaleVersion)
	case cs != nil && cs.inst != inst:
		return fmt.Errorf("joininference: MoveTo classes were not computed for version %d", inst.Version())
	}
	tr := s.Transcript()
	var soft *SoftSnapshot
	if s.soft != nil {
		soft = s.softSnapshot()
	}
	old := *s
	s.cfg.classes = cs
	s.reset(inst, s.kern.kind())
	if err := s.replay(tr, soft); err != nil {
		*s = old
		return err
	}
	return nil
}

// InstanceVersion returns the version of the instance the session currently
// runs over; MoveTo advances it.
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
