// Package product implements the Cartesian-product engine the inference
// strategies run on.
//
// The key observation (Section 5.3) is that two product tuples t, t' with
// T(t) = T(t') are interchangeable for the inference process: every
// consistent predicate selects either both or neither, so labeling one
// determines the other. The engine therefore groups D = R × P into
// *T-classes* — one entry per distinct most specific predicate — keeping a
// representative tuple and the number of tuples in the class. All strategy
// computation is then polynomial in the number of classes, not in |D|.
//
// Two collection paths compute the same list:
//
//   - Classes: the definition, an O(|R|·|P|) scan evaluating T per pair.
//   - ClassesIndexed: the class kernel (kernel.go). Only pairs sharing a
//     value can have T(t) ≠ ∅, so it walks per-attribute postings of
//     interned values, builds each candidate pair's T as a W-word mask and
//     looks it up in a mask table, crediting every other pair to the ∅
//     class in bulk. It allocates only when a class is minted, and on
//     sparse instances (TPC-H scale) it skips almost the entire product.
//
// The postings are shared: the semijoin witness table fills its rows
// through the same Postings and Scan. The same mask table keys T wherever
// this package looks a pair's class up: Index (a class list's pair → class
// lookup, shared by the sessions over one instance version) and ApplyDelta.
package product

import (
	"sort"

	"repro/internal/predicate"
	"repro/internal/relation"
)

// Class is one T-equivalence class of the Cartesian product: the set of
// product tuples t with T(t) equal to Theta.
type Class struct {
	// Theta is the most specific predicate T(t) shared by the class.
	Theta predicate.Pred
	// RI, PI index a representative tuple (R.Tuples[RI], P.Tuples[PI]).
	RI, PI int
	// Count is the number of product tuples in the class.
	Count int64
}

// Classes scans the full product and groups it into T-classes. Classes are
// returned in a deterministic order: ascending |Theta|, then by first
// occurrence in row-major product order.
func Classes(inst *relation.Instance, u *predicate.Universe) []*Class {
	byKey := make(map[string]*Class)
	var order []*Class
	for ri, tR := range inst.R.Tuples {
		if !inst.RAlive(ri) {
			continue
		}
		for pi, tP := range inst.P.Tuples {
			if !inst.PAlive(pi) {
				continue
			}
			th := predicate.T(u, tR, tP)
			k := th.Key()
			if c, ok := byKey[k]; ok {
				c.Count++
				continue
			}
			c := &Class{Theta: th, RI: ri, PI: pi, Count: 1}
			byKey[k] = c
			order = append(order, c)
		}
	}
	sortClasses(order)
	return order
}

// sortClasses orders classes by ascending predicate size, breaking ties by
// representative position in row-major product order. This is the order
// local strategies scan, and it makes runs reproducible.
func sortClasses(cs []*Class) {
	sort.SliceStable(cs, func(a, b int) bool {
		sa, sb := cs[a].Theta.Size(), cs[b].Theta.Size()
		if sa != sb {
			return sa < sb
		}
		if cs[a].RI != cs[b].RI {
			return cs[a].RI < cs[b].RI
		}
		return cs[a].PI < cs[b].PI
	})
}

// MaxClasses returns the classes whose Theta is ⊆-maximal among the given
// classes — the starting points of the top-down strategy (Algorithm 3).
func MaxClasses(cs []*Class) []*Class {
	var out []*Class
	for i, c := range cs {
		maximal := true
		for j, d := range cs {
			if i != j && c.Theta.Set.ProperSubsetOf(d.Theta.Set) {
				maximal = false
				break
			}
		}
		if maximal {
			out = append(out, c)
		}
	}
	return out
}

// JoinRatio computes the paper's instance-complexity measure (Section 5.3):
// the average size of the distinct most specific predicates occurring in
// the product, (Σ_{θ∈N} |θ|) / |N| with N = {T(t) | t ∈ D}.
func JoinRatio(cs []*Class) float64 {
	if len(cs) == 0 {
		return 0
	}
	sum := 0
	for _, c := range cs {
		sum += c.Theta.Size()
	}
	return float64(sum) / float64(len(cs))
}

// TotalCount sums class sizes; equals |R|·|P|.
func TotalCount(cs []*Class) int64 {
	var n int64
	for _, c := range cs {
		n += c.Count
	}
	return n
}
