// Package semijoin implements inference-related reasoning for semijoin
// predicates R ⋉θ P (Section 6). An example here is a tuple of R alone
// (projection hides the P side), which changes the complexity landscape
// completely: consistency checking — trivially PTIME for equijoins — is
// NP-complete for semijoins (Theorem 6.1).
//
// The package provides:
//
//   - Consistent: a complete decision procedure (with predicate witness)
//     based on backtracking over witness assignments for the positive
//     examples; worst-case exponential, as the theorem predicts.
//   - Informative: whether both labels of a row admit a consistent
//     predicate — the question the interactive scenario asks of every row.
//   - Solver: Consistent and Informative amortized over one instance, as
//     the root package's semijoin sessions use them, over a Table of
//     per-row witness sets that any number of solvers on one instance
//     version share.
//   - BruteForce: the definition, enumerating all θ ⊆ Ω; test oracle.
//   - The 3SAT → CONS⋉ reduction of Appendix A.1 (reduction.go) and a DPLL
//     SAT solver (sat.go) to cross-validate it.
package semijoin

import (
	"fmt"
	"sort"

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
	seen := make(map[int]bool)
	for _, i := range append(append([]int(nil), s.Pos...), s.Neg...) {
		if i < 0 || i >= inst.R.Len() {
			return fmt.Errorf("semijoin: example index %d out of range [0,%d)", i, inst.R.Len())
		}
		if seen[i] {
			return fmt.Errorf("semijoin: tuple %d labeled twice", i)
		}
		seen[i] = true
	}
	return nil
}

// witnesses returns the deduplicated most specific predicates
// {T(R[i], t') | t' ∈ P}: the possible "reasons" tuple i is in the
// semijoin. θ selects R[i] iff θ ⊆ w for some witness w.
func witnesses(inst *relation.Instance, u *predicate.Universe, i int) []predicate.Pred {
	seen := make(map[string]bool)
	var out []predicate.Pred
	for pi, tP := range inst.P.Tuples {
		if !inst.PAlive(pi) {
			continue
		}
		w := predicate.T(u, inst.R.Tuples[i], tP)
		k := w.Key()
		if !seen[k] {
			seen[k] = true
			out = append(out, w)
		}
	}
	// Keep only ⊆-maximal witnesses: if w ⊆ w', any θ ⊆ w is also ⊆ w'.
	var maxed []predicate.Pred
	for a, w := range out {
		dominated := false
		for b, w2 := range out {
			if a != b && (w.Set.ProperSubsetOf(w2.Set) || (w.Equal(w2) && a > b)) {
				dominated = true
				break
			}
		}
		if !dominated {
			maxed = append(maxed, w)
		}
	}
	return maxed
}

// selects reports whether θ selects the tuple with the given witnesses.
func selects(theta predicate.Pred, ws []predicate.Pred) bool {
	for _, w := range ws {
		if theta.MoreGeneralThan(w) {
			return true
		}
	}
	return false
}

// Consistent decides CONS⋉: is there a semijoin predicate selecting all
// positive examples and none of the negative ones? On success it returns
// one such predicate (a ⊆-maximal one: the intersection of one witness per
// positive example). The search is a backtracking assignment of witnesses,
// pruned by the monotonicity fact that if a partial intersection already
// selects a negative example, every refinement does too.
func Consistent(inst *relation.Instance, s Sample) (predicate.Pred, bool, error) {
	if err := s.Validate(inst); err != nil {
		return predicate.Pred{}, false, err
	}
	u := predicate.NewUniverse(inst)

	negWs := make([][]predicate.Pred, len(s.Neg))
	for k, j := range s.Neg {
		negWs[k] = witnesses(inst, u, j)
	}
	violates := func(theta predicate.Pred) bool {
		for _, ws := range negWs {
			if selects(theta, ws) {
				return true
			}
		}
		return false
	}

	posWs := make([][]predicate.Pred, len(s.Pos))
	for k, i := range s.Pos {
		posWs[k] = witnesses(inst, u, i)
		if len(posWs[k]) == 0 {
			// P is empty: no θ can select a positive example.
			return predicate.Pred{}, false, nil
		}
	}
	// Branch on the positives with the fewest witnesses first.
	sort.SliceStable(posWs, func(a, b int) bool { return len(posWs[a]) < len(posWs[b]) })

	// Memoize failed (depth, θ) states: the sub-search depends only on
	// those.
	failed := make(map[string]bool)

	var rec func(k int, theta predicate.Pred) (predicate.Pred, bool)
	rec = func(k int, theta predicate.Pred) (predicate.Pred, bool) {
		if violates(theta) {
			return predicate.Pred{}, false
		}
		if k == len(posWs) {
			return theta, true
		}
		key := fmt.Sprintf("%d|%s", k, theta.Key())
		if failed[key] {
			return predicate.Pred{}, false
		}
		for _, w := range posWs[k] {
			next := theta.Intersect(w)
			if got, ok := rec(k+1, next); ok {
				return got, true
			}
		}
		failed[key] = true
		return predicate.Pred{}, false
	}

	theta, ok := rec(0, predicate.Omega(u))
	return theta, ok, nil
}

// Informative reports whether both labels for tuple ri admit a consistent
// predicate extending the sample (two CONS⋉ calls) — i.e. whether asking
// the user about ri would narrow the candidate space.
func Informative(inst *relation.Instance, s Sample, ri int) (bool, error) {
	asPos := Sample{Pos: append(append([]int(nil), s.Pos...), ri), Neg: s.Neg}
	_, okPos, err := Consistent(inst, asPos)
	if err != nil || !okPos {
		return false, err
	}
	asNeg := Sample{Pos: s.Pos, Neg: append(append([]int(nil), s.Neg...), ri)}
	_, okNeg, err := Consistent(inst, asNeg)
	return okNeg, err
}

// BruteForce decides CONS⋉ by enumerating every θ ⊆ Ω; usable only for
// small universes (it panics above 24 pairs). Test oracle for Consistent.
func BruteForce(inst *relation.Instance, s Sample) (predicate.Pred, bool, error) {
	if err := s.Validate(inst); err != nil {
		return predicate.Pred{}, false, err
	}
	u := predicate.NewUniverse(inst)
	if u.Size() > 24 {
		panic(fmt.Sprintf("semijoin: BruteForce limited to 24 pairs, got %d", u.Size()))
	}
	allWs := make(map[int][]predicate.Pred)
	for _, i := range append(append([]int(nil), s.Pos...), s.Neg...) {
		allWs[i] = witnesses(inst, u, i)
	}
	for mask := 0; mask < 1<<uint(u.Size()); mask++ {
		var theta predicate.Pred
		for b := 0; b < u.Size(); b++ {
			if mask&(1<<uint(b)) != 0 {
				theta.Set.Add(b)
			}
		}
		ok := true
		for _, i := range s.Pos {
			if !selects(theta, allWs[i]) {
				ok = false
				break
			}
		}
		if !ok {
			continue
		}
		for _, j := range s.Neg {
			if selects(theta, allWs[j]) {
				ok = false
				break
			}
		}
		if ok {
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
