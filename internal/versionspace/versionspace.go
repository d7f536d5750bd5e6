// Package versionspace reasons about C(S) — the set of all join predicates
// consistent with a sample — as an explicit object: counting it without
// enumeration (inclusion–exclusion), enumerating it when small, and
// summarizing the state of an inference session ("how many candidate
// queries remain?"). The engine itself never materializes C(S); this
// package exists for progress reporting, debugging and tests.
//
// Structure of C(S): a predicate θ is consistent iff θ ⊆ T(S+) and
// θ ⊄ T(t′) for every negative example t′ (both directions follow from
// t ∈ R ⋈θ P ⇔ θ ⊆ T(t)). C(S) is therefore the subset lattice of T(S+)
// minus the union of the subset lattices of the negative intersections.
package versionspace

import (
	"math/big"

	"repro/internal/bitset"
	"repro/internal/inference"
	"repro/internal/predicate"
	"repro/internal/strategy"
)

// Count returns |C(S)| for an engine's current sample, or nil when the
// inclusion–exclusion width is exceeded (more than 20 distinct ⊆-maximal
// negative intersections — practically unheard of).
func Count(e *inference.Engine) *big.Int {
	return strategy.CountConsistent(e.TPos(), e.Sample().Negatives())
}

// Enumerate lists C(S) explicitly, in ascending size order, provided
// |T(S+)| ≤ maxBits (enumeration is 2^|T(S+)|). It returns nil when the
// space is too large; callers should Count first.
func Enumerate(e *inference.Engine, maxBits int) []predicate.Pred {
	tpos := e.TPos()
	elems := tpos.Set.Elems()
	if len(elems) > maxBits {
		return nil
	}
	negs := e.Sample().Negatives()
	var out []predicate.Pred
	for mask := 0; mask < 1<<uint(len(elems)); mask++ {
		var s bitset.Set
		for b := 0; b < len(elems); b++ {
			if mask&(1<<uint(b)) != 0 {
				s.Add(elems[b])
			}
		}
		p := predicate.Pred{Set: s}
		ok := true
		for _, n := range negs {
			if p.Set.SubsetOf(n.Set) {
				ok = false
				break
			}
		}
		if ok {
			out = append(out, p)
		}
	}
	// Ascending size, then canonical key: a stable, readable order.
	sortPreds(out)
	return out
}

func sortPreds(ps []predicate.Pred) {
	// Insertion sort keeps this dependency-free; candidate lists are small
	// by construction (callers bound |T(S+)|).
	for i := 1; i < len(ps); i++ {
		for j := i; j > 0; j-- {
			a, b := ps[j-1], ps[j]
			if a.Size() < b.Size() || (a.Size() == b.Size() && a.Key() <= b.Key()) {
				break
			}
			ps[j-1], ps[j] = b, a
		}
	}
}

// MinimalConsistent returns the ⊆-minimal predicates of C(S): the most
// *general* queries consistent with the answers (the engine's Result() is
// the most specific one, T(S+)). Example 3.1 of the paper shows both ends:
// θ0 = {(A1,B1),(A2,B3)} is most specific, θ0′ = {(A1,B1)} is consistent
// and smaller. Enumeration-backed, so the same maxBits bound as Enumerate
// applies (nil when too large).
func MinimalConsistent(e *inference.Engine, maxBits int) []predicate.Pred {
	all := Enumerate(e, maxBits)
	if all == nil {
		return nil
	}
	var out []predicate.Pred
	for i, p := range all {
		minimal := true
		for j, q := range all {
			if i != j && q.Set.ProperSubsetOf(p.Set) {
				minimal = false
				break
			}
		}
		if minimal {
			out = append(out, p)
		}
	}
	return out
}

// Progress summarizes how far an inference session has converged.
type Progress struct {
	// Candidates is |C(S)| (nil if uncountable; see Count).
	Candidates *big.Int
	// InformativeClasses is the number of classes still worth asking.
	InformativeClasses int
	// TotalClasses is the number of T-classes of the product.
	TotalClasses int
	// Labeled is the number of answered questions.
	Labeled int
}

// Describe computes a Progress snapshot for the engine.
func Describe(e *inference.Engine) Progress {
	return Progress{
		Candidates:         Count(e),
		InformativeClasses: e.NumInformative(),
		TotalClasses:       len(e.Classes()),
		Labeled:            e.Sample().Len(),
	}
}
