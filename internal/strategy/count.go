package strategy

import (
	"math/big"

	"repro/internal/predicate"
)

// This file counts the version space: the number |C(S)| of predicates
// consistent with a sample, which Session.Progress and ExplainQuestion
// report (through package versionspace) as "N candidate queries remain".
// It is countable without enumeration:
//
//	C(S) = { θ ⊆ T(S+) | ∀ negative n: θ ⊄ T(n) }
//	|C(S)| = 2^|T(S+)| − |⋃_i P(T(S+) ∩ T(n_i))|
//
// and the union of power sets yields to inclusion–exclusion over the
// ⊆-maximal intersections — exponential in the number of *distinct
// maximal* negative intersections, which stays tiny in practice.

// maxIETerms bounds the inclusion–exclusion width; beyond it counting
// reports "unknown".
const maxIETerms = 20

// CountConsistent returns |C(S)| for positive knowledge tpos = T(S+) and
// negative examples negs, or nil if the inclusion–exclusion would need
// more than maxIETerms distinct maximal negative intersections.
func CountConsistent(tpos predicate.Pred, negs []predicate.Pred) *big.Int {
	// Collect distinct, ⊆-maximal mi = tpos ∩ T(neg_i). A subset relation
	// mi ⊆ mj makes P(mi) redundant in the union.
	var ms []predicate.Pred
	for _, n := range negs {
		m := tpos.Intersect(n)
		redundant := false
		for k := 0; k < len(ms); k++ {
			if m.Set.SubsetOf(ms[k].Set) {
				redundant = true
				break
			}
		}
		if redundant {
			continue
		}
		// Drop previously kept sets that m swallows.
		kept := ms[:0]
		for _, old := range ms {
			if !old.Set.SubsetOf(m.Set) {
				kept = append(kept, old)
			}
		}
		ms = append(kept, m)
	}
	if len(ms) > maxIETerms {
		return nil
	}

	total := pow2(tpos.Size())
	if len(ms) == 0 {
		return total
	}
	// Inclusion–exclusion over non-empty subsets of ms.
	union := new(big.Int)
	for mask := 1; mask < 1<<uint(len(ms)); mask++ {
		inter := tpos.Clone()
		bits := 0
		for i := 0; i < len(ms); i++ {
			if mask&(1<<uint(i)) != 0 {
				inter.Set.IntersectInPlace(ms[i].Set)
				bits++
			}
		}
		term := pow2(inter.Size())
		if bits%2 == 1 {
			union.Add(union, term)
		} else {
			union.Sub(union, term)
		}
	}
	return total.Sub(total, union)
}

func pow2(n int) *big.Int {
	return new(big.Int).Lsh(big.NewInt(1), uint(n))
}
