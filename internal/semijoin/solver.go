package semijoin

import (
	"slices"
	"sort"
	"sync"
	"sync/atomic"

	"repro/internal/bitset"
	"repro/internal/certainty"
	"repro/internal/predicate"
	"repro/internal/product"
	"repro/internal/relation"
)

// Table holds the per-row witness sets {T(R[i], t') | t' ∈ P live}
// (deduplicated, ⊆-maximal) of one instance version; θ selects R[i] iff
// θ ⊆ w for some witness w. One table serves every Solver over the
// version: rows are filled lazily, on first use, and never mutated again.
// A Table is safe for concurrent use — racing first users of a row compute
// identical sets and the first to publish wins.
type Table struct {
	inst *relation.Instance
	u    *predicate.Universe
	rows []atomic.Pointer[[]predicate.Pred]

	// post holds P's value postings, built on the first row fill; scans
	// pools the fills' scratch, since fills run concurrently.
	postOnce sync.Once
	post     *product.Postings
	scans    sync.Pool // of *witnessScratch
}

// witnessScratch is a fill's scratch: a scan and a kernel of W words.
type witnessScratch struct {
	scan *product.Scan
	max  certainty.Kernel
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

// Witnesses returns row ri's deduplicated ⊆-maximal witness predicates in
// P order, computing them on first use. Callers must not mutate the slice.
func (t *Table) Witnesses(ri int) []predicate.Pred {
	if ws := t.rows[ri].Load(); ws != nil {
		return *ws
	}
	ws := t.fill(ri)
	if t.rows[ri].CompareAndSwap(nil, &ws) {
		return ws
	}
	return *t.rows[ri].Load()
}

// fill computes row ri's witnesses from P's value postings. A scan gives
// the T mask of every live P row sharing a value with R[ri], and every
// other live P row has T = ∅. Fed in P order to a certainty kernel's
// AddNegative, which keeps its negatives ⊆-maximal and in first-occurrence
// order, they leave exactly the witness set; ∅ goes first, as any other
// mask evicts it.
func (t *Table) fill(ri int) []predicate.Pred {
	t.postOnce.Do(func() { t.post = product.NewPostings(t.inst, t.u) })
	sc, _ := t.scans.Get().(*witnessScratch)
	if sc == nil {
		sc = &witnessScratch{scan: t.post.NewScan(), max: certainty.New(predicate.Omega(t.u).Set.Words())}
	}
	defer t.scans.Put(sc)

	cands := sc.scan.Row(t.inst.R.Tuples[ri])
	slices.Sort(cands)
	sc.max.Negs = sc.max.Negs[:0]
	if len(cands) < t.inst.LiveP() {
		sc.max.AddNegative(nil)
	}
	for _, pi := range cands {
		sc.max.AddNegative(sc.scan.Mask(pi))
	}
	w := len(sc.max.TPos)
	ws := make([]predicate.Pred, 0, len(sc.max.Negs)/w)
	for off := 0; off < len(sc.max.Negs); off += w {
		ws = append(ws, predicate.Pred{Set: bitset.FromWords(sc.max.Negs[off : off+w])})
	}
	return ws
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

// Solver decides CONS⋉ by a backtracking assignment of witnesses to the
// positive examples, pruned by monotonicity: once a partial intersection
// selects a negative example, every refinement does too. It amortizes the
// decisions over one instance — the shape of the interactive scenario,
// where every informativeness test costs two Consistent calls and a
// session issues thousands of them against the same R and P. The witness
// sets come from a Table, computed once per instance version and shared by
// every solver over it; the search itself runs on scratch — per-depth
// intersection buffers instead of a fresh predicate per branch, and memo
// keys built in a reusable byte buffer — so a decision allocates only its
// memo table. solver_test.go checks its verdicts against BruteForce; the
// worst case stays exponential, as Theorem 6.1 demands.
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

// Consistent decides CONS⋉: is there a semijoin predicate selecting all
// positive examples and none of the negative ones? On success it returns
// one such predicate, a ⊆-maximal one: the intersection of one witness per
// positive example.
func (sv *Solver) Consistent(s Sample) (predicate.Pred, bool, error) {
	theta, ok, err := sv.solve(s)
	if ok {
		theta = theta.Clone() // the search result aliases a scratch buffer
	}
	return theta, ok, err
}

// Informative reports whether both labels for row ri admit a consistent
// predicate extending the sample (two CONS⋉ decisions) — i.e. whether
// asking the user about ri would narrow the candidate space.
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

// selects reports whether θ selects the tuple with the given witnesses.
func selects(theta predicate.Pred, ws []predicate.Pred) bool {
	for _, w := range ws {
		if theta.MoreGeneralThan(w) {
			return true
		}
	}
	return false
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
	if err := s.validate(sv.seen); err != nil {
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
	// Branch on the positives with the fewest witnesses first.
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
