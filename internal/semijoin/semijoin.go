// Package semijoin implements inference-related reasoning for semijoin
// predicates R ⋉θ P (Section 6). An example here is a tuple of R alone
// (projection hides the P side), which changes the complexity landscape
// completely: consistency checking — trivially PTIME for equijoins — is
// NP-complete for semijoins (Theorem 6.1).
//
// The package provides:
//
//   - Solver: the complete CONS⋉ decision procedure (with predicate
//     witness) and the informativeness test the interactive scenario asks
//     of every row (both labels consistent), by backtracking over witness
//     assignments for the positive examples; worst-case exponential, as
//     the theorem predicts.
//   - Table: the per-row witness sets the solver searches, filled from the
//     instance's value postings (product.Postings) and shared by any
//     number of solvers over one instance version.
//   - BruteForce: the definition, enumerating all θ ⊆ Ω; test oracle.
//   - The 3SAT → CONS⋉ reduction of Appendix A.1 (reduction.go) and a DPLL
//     SAT solver (sat.go) to cross-validate it.
package semijoin

import (
	"fmt"
	"slices"

	"repro/internal/bitset"
	"repro/internal/predicate"
	"repro/internal/relation"
)

// Sample is a set of semijoin examples: indexes into R.Tuples labeled
// positive (must appear in R ⋉θ P) or negative (must not).
type Sample struct {
	Pos []int
	Neg []int
}

// Validate checks all indexes are in range and no tuple is labeled twice.
func (s Sample) Validate(inst *relation.Instance) error {
	return s.validate(make([]bool, inst.R.Len()))
}

// validate is Validate over len(seen) rows on the caller's scratch, which
// must be all false and is cleared again on return.
func (s Sample) validate(seen []bool) error {
	defer clear(seen)
	for _, idxs := range [2][]int{s.Pos, s.Neg} {
		for _, i := range idxs {
			if i < 0 || i >= len(seen) {
				return fmt.Errorf("semijoin: example index %d out of range [0,%d)", i, len(seen))
			}
			if seen[i] {
				return fmt.Errorf("semijoin: tuple %d labeled twice", i)
			}
			seen[i] = true
		}
	}
	return nil
}

// BruteForce decides CONS⋉ by its definition: it enumerates every θ ⊆ Ω
// and checks, for each example R[i], whether θ selects (R[i], t') for some
// live t' ∈ P. Apart from validating the sample it shares no code with
// Solver. It is the tests' reference, usable only for small universes (it
// panics above 24 pairs).
func BruteForce(inst *relation.Instance, s Sample) (predicate.Pred, bool, error) {
	if err := s.Validate(inst); err != nil {
		return predicate.Pred{}, false, err
	}
	u := predicate.NewUniverse(inst)
	if u.Size() > 24 {
		panic(fmt.Sprintf("semijoin: BruteForce limited to 24 pairs, got %d", u.Size()))
	}
	selects := func(theta predicate.Pred, i int) bool {
		for pi, tP := range inst.P.Tuples {
			if inst.PAlive(pi) && theta.Selects(u, inst.R.Tuples[i], tP) {
				return true
			}
		}
		return false
	}
	for mask := uint64(0); mask < 1<<uint(u.Size()); mask++ {
		theta := predicate.Pred{Set: bitset.FromWords([]uint64{mask})}
		if !slices.ContainsFunc(s.Pos, func(i int) bool { return !selects(theta, i) }) &&
			!slices.ContainsFunc(s.Neg, func(i int) bool { return selects(theta, i) }) {
			return theta, true, nil
		}
	}
	return predicate.Pred{}, false, nil
}

// Eval materializes R ⋉θ P as R-tuple indexes; convenience re-export used
// by examples and tests.
func Eval(inst *relation.Instance, theta predicate.Pred) []int {
	u := predicate.NewUniverse(inst)
	return predicate.Semijoin(inst, u, theta)
}
