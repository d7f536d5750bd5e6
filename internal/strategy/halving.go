package strategy

import (
	"math/big"

	"repro/internal/inference"
	"repro/internal/predicate"
)

// This file implements a strategy the paper does not have but points
// toward in its future work ("lookahead strategies using probabilistic
// graphical models"): version-space halving under a uniform prior over
// consistent predicates. Each question is chosen to split the set C(S) of
// consistent predicates as evenly as possible, the classic
// membership-query bisection of Angluin's framework.
//
// The key enabler is that |C(S)| is countable without enumeration:
//
//	C(S) = { θ ⊆ T(S+) | ∀ negative n: θ ⊄ T(n) }
//	|C(S)| = 2^|T(S+)| − |⋃_i P(T(S+) ∩ T(n_i))|
//
// and the union of power sets yields to inclusion–exclusion over the
// ⊆-maximal intersections — exponential in the number of *distinct
// maximal* negative intersections, which stays tiny in practice.

// maxIETerms bounds the inclusion–exclusion width; beyond it counting
// reports "unknown" and Halving falls back.
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

// Halving asks the informative tuple whose answer splits the consistent
// predicate space most evenly (minimizing the worst-case remaining
// |C(S)|). Fallback (default L1S) handles the rare states where counting
// is infeasible.
type Halving struct {
	// Fallback is consulted when inclusion–exclusion exceeds maxIETerms;
	// nil means Lookahead{K: 1}.
	Fallback inference.Strategy
}

// Name implements Strategy.
func (h Halving) Name() string { return "HALVE" }

// Next implements Strategy.
func (h Halving) Next(e *inference.Engine) int {
	inf := e.InformativeClasses()
	if len(inf) == 0 {
		return -1
	}
	tpos := e.TPos()
	negs := e.Sample().Negatives()

	bestIdx := -1
	var bestImbalance *big.Int
	for _, ci := range inf {
		theta := e.Classes()[ci].Theta
		// Consistent predicates selecting the tuple: subsets of tpos ∩ θ
		// avoiding the same negatives.
		posCount := CountConsistent(tpos.Intersect(theta), negs)
		if posCount == nil {
			break
		}
		// Consistent predicates rejecting it: add θ as a negative.
		negCount := CountConsistent(tpos, append(append([]predicate.Pred(nil), negs...), theta))
		if negCount == nil {
			break
		}
		imbalance := new(big.Int).Sub(posCount, negCount)
		imbalance.Abs(imbalance)
		if bestIdx == -1 || imbalance.Cmp(bestImbalance) < 0 {
			bestIdx = ci
			bestImbalance = imbalance
		}
	}
	if bestIdx >= 0 {
		return bestIdx
	}
	fb := h.Fallback
	if fb == nil {
		fb = Lookahead{K: 1}
	}
	return fb.Next(e)
}
