package semijoin

import (
	"fmt"
	"sort"
	"sync/atomic"

	"repro/internal/predicate"
	"repro/internal/relation"
)

// Table holds the per-row witness sets {T(R[i], t') | t' ∈ P}
// (deduplicated, ⊆-maximal) of one instance version. They depend only on
// that version, so one table serves every Solver over it: rows are filled
// lazily, on first use, and a filled row is never mutated again. A Table is
// safe for concurrent use — racing first users of a row compute identical
// sets and the first to publish wins.
type Table struct {
	inst *relation.Instance
	u    *predicate.Universe
	rows []atomic.Pointer[[]predicate.Pred]
}

// NewTable returns an empty witness table for the instance version.
func NewTable(inst *relation.Instance) *Table {
	return &Table{
		inst: inst,
		u:    predicate.NewUniverse(inst),
		rows: make([]atomic.Pointer[[]predicate.Pred], inst.R.Len()),
	}
}

// Instance returns the instance version the table was built for.
func (t *Table) Instance() *relation.Instance { return t.inst }

// Universe returns Ω of the table's instance.
func (t *Table) Universe() *predicate.Universe { return t.u }

// Witnesses returns row ri's deduplicated ⊆-maximal witness predicates,
// computing them on first use. Callers must not mutate the slice.
func (t *Table) Witnesses(ri int) []predicate.Pred {
	if ws := t.rows[ri].Load(); ws != nil {
		return *ws
	}
	ws := witnesses(t.inst, t.u, ri)
	if t.rows[ri].CompareAndSwap(nil, &ws) {
		return ws
	}
	return *t.rows[ri].Load()
}

// Filled returns how many rows have their witness set computed.
func (t *Table) Filled() int {
	n := 0
	for i := range t.rows {
		if t.rows[i].Load() != nil {
			n++
		}
	}
	return n
}

// Solver amortizes repeated CONS⋉ decisions over one instance — the shape
// of the interactive scenario, where every informativeness test costs two
// Consistent calls and a session issues thousands of them against the same
// R and P. The witness sets come from a Table, computed once per instance
// version and shared by every solver over it; the backtracking search
// itself runs on scratch — per-depth intersection buffers instead of a
// fresh predicate per branch, and memo keys built in a reusable byte
// buffer — so a decision allocates only its memo table. Results are
// exactly those of the package-level Consistent/Informative (solver_test.go
// checks differentially); the worst case stays exponential, as Theorem 6.1
// demands.
//
// A Solver is not safe for concurrent use; its Table is.
type Solver struct {
	tbl *Table

	// omega is Ω, the root of every backtracking search.
	omega predicate.Pred

	// Scratch: seen backs validation, posBuf/negBuf the hypothetical
	// samples of Informative, posWs/negWs the per-call witness tables,
	// levels the per-depth intersection buffers, keyBuf the memo keys.
	seen   []bool
	posBuf []int
	negBuf []int
	posWs  [][]predicate.Pred
	negWs  [][]predicate.Pred
	levels []predicate.Pred
	keyBuf []byte
}

// NewSolver returns a solver over the witness table t, which it may share
// with any number of other solvers.
func NewSolver(t *Table) *Solver {
	return &Solver{
		tbl:   t,
		omega: predicate.Omega(t.u),
		seen:  make([]bool, len(t.rows)),
	}
}

// Consistent decides CONS⋉ for the sample, returning a witness predicate
// on success; identical results to the package-level Consistent.
func (sv *Solver) Consistent(s Sample) (predicate.Pred, bool, error) {
	theta, ok, err := sv.solve(s)
	if ok {
		theta = theta.Clone() // the search result aliases a scratch buffer
	}
	return theta, ok, err
}

// Informative reports whether both labels for row ri admit a consistent
// predicate extending the sample (two CONS⋉ decisions); identical results
// to the package-level Informative.
func (sv *Solver) Informative(s Sample, ri int) (bool, error) {
	sv.posBuf = append(append(sv.posBuf[:0], s.Pos...), ri)
	_, okPos, err := sv.solve(Sample{Pos: sv.posBuf, Neg: s.Neg})
	if err != nil {
		return false, err
	}
	if !okPos {
		return false, nil
	}
	sv.negBuf = append(append(sv.negBuf[:0], s.Neg...), ri)
	_, okNeg, err := sv.solve(Sample{Pos: s.Pos, Neg: sv.negBuf})
	return okNeg, err
}

// validate is Sample.Validate on the solver's scratch.
func (sv *Solver) validate(s Sample) error {
	defer func() {
		for _, i := range s.Pos {
			if i >= 0 && i < len(sv.seen) {
				sv.seen[i] = false
			}
		}
		for _, i := range s.Neg {
			if i >= 0 && i < len(sv.seen) {
				sv.seen[i] = false
			}
		}
	}()
	check := func(idxs []int) error {
		for _, i := range idxs {
			if i < 0 || i >= len(sv.seen) {
				return fmt.Errorf("semijoin: example index %d out of range [0,%d)", i, len(sv.seen))
			}
			if sv.seen[i] {
				return fmt.Errorf("semijoin: tuple %d labeled twice", i)
			}
			sv.seen[i] = true
		}
		return nil
	}
	if err := check(s.Pos); err != nil {
		return err
	}
	return check(s.Neg)
}

// stateKey encodes (depth, theta) into the reusable key buffer.
func (sv *Solver) stateKey(k int, theta predicate.Pred) []byte {
	sv.keyBuf = append(sv.keyBuf[:0], byte(k), byte(k>>8), byte(k>>16), byte(k>>24))
	sv.keyBuf = theta.Set.AppendKey(sv.keyBuf)
	return sv.keyBuf
}

// solve runs the backtracking witness assignment of Consistent on scratch
// storage. The returned predicate aliases a scratch buffer (or Ω) and is
// only valid until the next solver call.
func (sv *Solver) solve(s Sample) (predicate.Pred, bool, error) {
	if err := sv.validate(s); err != nil {
		return predicate.Pred{}, false, err
	}
	negWs := sv.negWs[:0]
	for _, j := range s.Neg {
		negWs = append(negWs, sv.tbl.Witnesses(j))
	}
	sv.negWs = negWs

	posWs := sv.posWs[:0]
	for _, i := range s.Pos {
		ws := sv.tbl.Witnesses(i)
		if len(ws) == 0 {
			// P is empty: no θ can select a positive example.
			sv.posWs = posWs
			return predicate.Pred{}, false, nil
		}
		posWs = append(posWs, ws)
	}
	sv.posWs = posWs
	// Branch on the positives with the fewest witnesses first (same order
	// as the package-level search).
	sort.SliceStable(posWs, func(a, b int) bool { return len(posWs[a]) < len(posWs[b]) })

	for len(sv.levels) < len(posWs) {
		sv.levels = append(sv.levels, predicate.Pred{})
	}

	// Memoize failed (depth, θ) states: the sub-search depends only on
	// those. The table is per-call (correctness), the keys come from the
	// shared buffer.
	failed := make(map[string]bool)

	var rec func(k int, theta predicate.Pred) (predicate.Pred, bool)
	rec = func(k int, theta predicate.Pred) (predicate.Pred, bool) {
		for _, ws := range sv.negWs {
			if selects(theta, ws) {
				return predicate.Pred{}, false
			}
		}
		if k == len(posWs) {
			return theta, true
		}
		if failed[string(sv.stateKey(k, theta))] {
			return predicate.Pred{}, false
		}
		for _, w := range posWs[k] {
			predicate.IntersectInto(&sv.levels[k], theta, w)
			if got, ok := rec(k+1, sv.levels[k]); ok {
				return got, true
			}
		}
		failed[string(sv.stateKey(k, theta))] = true
		return predicate.Pred{}, false
	}

	theta, ok := rec(0, sv.omega)
	return theta, ok, nil
}
