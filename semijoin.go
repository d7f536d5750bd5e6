package joininference

import (
	"context"
	"fmt"

	"repro/internal/belief"
	"repro/internal/semijoin"
	"repro/internal/strategy"
)

// Semijoin support (Section 6 of the paper). Because projection hides the
// P side, examples are rows of R alone — and merely deciding whether *any*
// semijoin predicate is consistent with a set of labeled rows is
// NP-complete (Theorem 6.1). Interactive semijoin inference runs through
// the ordinary session machinery — NewSemijoinSession plus Run or
// NextQuestions/Answer — while the functions below expose the complete
// solver directly; expect exponential worst cases by design.

// SemijoinSample labels rows of R: Keep lists indexes that must appear in
// R ⋉θ P, Drop lists indexes that must not.
type SemijoinSample struct {
	Keep []int
	Drop []int
}

// SemijoinConsistent decides whether any semijoin predicate selects all
// Keep rows and no Drop row; on success it returns one such predicate.
func SemijoinConsistent(inst *Instance, s SemijoinSample) (Pred, bool, error) {
	return semijoin.NewSolver(semijoin.NewTable(inst)).Consistent(semijoin.Sample{Pos: s.Keep, Neg: s.Drop})
}

// SemijoinEval materializes R ⋉θ P as R-row indexes.
func SemijoinEval(inst *Instance, theta Pred) []int {
	return semijoin.Eval(inst, theta)
}

// semijoinKernel decides keys (rows of R) with the CONS⋉ solver. The
// solver's scratch buffers amortize the NP-complete informativeness scans
// across the session; its witness table, and the universe with it, belong
// to the instance version and may be shared with other sessions over it.
type semijoinKernel struct {
	inst    *Instance
	u       *Universe
	solver  *semijoin.Solver
	sample  semijoin.Sample
	labeled []bool
	entries []TranscriptEntry
	// current is the consistent witness predicate of the sample, valid
	// when valid is set (Inferred recomputes it lazily otherwise).
	current Pred
	valid   bool

	// pairPos/pairNeg back the hypothetical samples of the pairwise batch
	// scan, so each of its O(k²) informativeness probes reuses one buffer
	// instead of copying the sample.
	pairPos, pairNeg []int
}

func newSemijoinKernel(tbl *semijoin.Table) *semijoinKernel {
	return &semijoinKernel{
		inst:    tbl.Instance(),
		u:       tbl.Universe(),
		solver:  semijoin.NewSolver(tbl),
		labeled: make([]bool, tbl.Instance().R.Len()),
	}
}

func (k *semijoinKernel) kind() string        { return SnapshotKindSemijoin }
func (k *semijoinKernel) universe() *Universe { return k.u }
func (k *semijoinKernel) keys() int           { return k.inst.R.Len() }
func (k *semijoinKernel) live(ri int) bool    { return k.inst.RAlive(ri) }
func (k *semijoinKernel) askable(ri int) bool { return !k.labeled[ri] && k.live(ri) }
func (k *semijoinKernel) transcript() []TranscriptEntry {
	return append([]TranscriptEntry(nil), k.entries...)
}
func (k *semijoinKernel) violated([]TranscriptEntry, TranscriptEntry) []bool { return nil }

func (k *semijoinKernel) keyOf(ref QuestionRef) (int, error) {
	if !ref.Semijoin() {
		return 0, fmt.Errorf("%w: (%d,%d) is a join question but this is a semijoin session", ErrBadQuestionRef, ref.RIndex, ref.PIndex)
	}
	if ref.RIndex < 0 || ref.RIndex >= k.inst.R.Len() {
		return 0, fmt.Errorf("%w: row %d out of range [0,%d)", ErrBadQuestionRef, ref.RIndex, k.inst.R.Len())
	}
	return ref.RIndex, nil
}

func (k *semijoinKernel) question(ri int) Question {
	return Question{
		RTuple:           k.inst.R.Tuples[ri],
		RIndex:           ri,
		PIndex:           -1,
		EquivalentTuples: 1,
		key:              ri,
		u:                k.u,
		inst:             k.inst,
	}
}

func (k *semijoinKernel) labelOf(ri int) (positive, labeled bool) {
	if !k.labeled[ri] {
		return false, false
	}
	for _, e := range k.entries {
		if e.RIndex == ri {
			return e.Positive, true
		}
	}
	return false, false
}

// informative pays two CONS⋉ decisions; a deleted row is never
// informative.
func (k *semijoinKernel) informative(ri int) (bool, error) {
	if !k.askable(ri) {
		return false, nil
	}
	ok, err := k.solver.Informative(k.sample, ri)
	if err != nil {
		return false, fmt.Errorf("joininference: %w", err)
	}
	return ok, nil
}

// done scans every unlabeled live row: Γ itself is NP-hard here.
func (k *semijoinKernel) done(ctx context.Context) (bool, error) {
	first, err := k.next(ctx)
	return first < 0, err
}

func (k *semijoinKernel) random() (*strategy.Random, error) { return nil, nil }

// next returns the first informative row in scan order; semijoin sessions
// have no strategy.
func (k *semijoinKernel) next(ctx context.Context) (int, error) {
	for ri := range k.labeled {
		if err := ctx.Err(); err != nil {
			return -1, fmt.Errorf("joininference: %w", err)
		}
		ok, err := k.informative(ri)
		if err != nil {
			return -1, err
		}
		if ok {
			return ri, nil
		}
	}
	return -1, nil
}

// extend scans on from the last picked row: next's pick is the first
// informative row, so no earlier row is a candidate, and a row passed over
// stays uninformative (uninformativeness is monotone), so it is never
// re-tested.
func (k *semijoinKernel) extend(ctx context.Context, picked []int, n int) ([]int, bool, error) {
	for ri := picked[len(picked)-1] + 1; ri < len(k.labeled); ri++ {
		if len(picked) >= n {
			return picked, false, nil
		}
		if !k.askable(ri) {
			continue
		}
		if err := ctx.Err(); err != nil {
			return nil, false, fmt.Errorf("joininference: %w", err)
		}
		ok, err := k.informative(ri)
		if err == nil && ok {
			ok, err = k.pairwise(ri, picked)
		}
		if err != nil {
			return nil, false, err
		}
		if ok {
			picked = append(picked, ri)
		}
	}
	return picked, true, nil
}

// pairwise checks mutual informativeness of row ri against every picked
// row under both labels of either. The hypothetical samples live in the
// kernel's pair buffers (the solver keeps its own extension scratch, so
// the nesting is safe).
func (k *semijoinKernel) pairwise(ri int, picked []int) (bool, error) {
	for _, p := range picked {
		for _, pair := range [2][2]int{{p, ri}, {ri, p}} {
			a, b := pair[0], pair[1]
			base := k.sample
			k.pairPos = append(append(k.pairPos[:0], base.Pos...), a)
			k.pairNeg = append(append(k.pairNeg[:0], base.Neg...), a)
			for _, hyp := range [2]semijoin.Sample{{Pos: k.pairPos, Neg: base.Neg}, {Pos: base.Pos, Neg: k.pairNeg}} {
				ok, err := k.solver.Informative(hyp, b)
				if err != nil {
					return false, fmt.Errorf("joininference: %w", err)
				}
				if !ok {
					return false, nil
				}
			}
		}
	}
	return true, nil
}

// commit checks the extended sample with one CONS⋉ decision before
// recording anything.
func (k *semijoinKernel) commit(ri int, l Label) error {
	next := semijoin.Sample{Pos: k.sample.Pos, Neg: k.sample.Neg}
	if l == Positive {
		next.Pos = append(append([]int(nil), next.Pos...), ri)
	} else {
		next.Neg = append(append([]int(nil), next.Neg...), ri)
	}
	theta, ok, err := k.solver.Consistent(next)
	if err != nil {
		return fmt.Errorf("joininference: %w", err)
	}
	if !ok {
		return ErrInconsistent
	}
	k.sample = next
	k.labeled[ri] = true
	k.entries = append(k.entries, TranscriptEntry{RIndex: ri, PIndex: -1, Positive: bool(l)})
	k.current, k.valid = theta, true
	return nil
}

// sampleOf converts entries to a row sample; ok is false when a row sits
// on both sides (never consistent).
func sampleOf(entries []TranscriptEntry) (sm semijoin.Sample, ok bool) {
	seen := make(map[int]bool, len(entries))
	for _, e := range entries {
		if seen[e.RIndex] {
			return sm, false
		}
		seen[e.RIndex] = true
		if e.Positive {
			sm.Pos = append(sm.Pos, e.RIndex)
		} else {
			sm.Neg = append(sm.Neg, e.RIndex)
		}
	}
	return sm, true
}

func (k *semijoinKernel) consistent(entries []TranscriptEntry) (bool, error) {
	sm, ok := sampleOf(entries)
	if !ok {
		return false, nil
	}
	_, ok, err := k.solver.Consistent(sm)
	if err != nil {
		return false, fmt.Errorf("joininference: %w", err)
	}
	return ok, nil
}

// rebuild resets the sample to tr; the solver carries over, its witness
// table depends only on the instance version.
func (k *semijoinKernel) rebuild(tr []TranscriptEntry) error {
	k.sample, _ = sampleOf(tr)
	k.labeled = make([]bool, k.inst.R.Len())
	for _, e := range tr {
		k.labeled[e.RIndex] = true
	}
	k.entries = append([]TranscriptEntry(nil), tr...)
	k.valid = false
	return nil
}

func (k *semijoinKernel) inferred() Pred {
	if !k.valid {
		theta, ok, err := k.solver.Consistent(k.sample)
		if err != nil || !ok {
			return Pred{}
		}
		k.current, k.valid = theta, true
	}
	return k.current
}

// applyUpdate drops the answers for deleted R rows, moves onto the new
// version's shared witness table (witness sets are version-bound) and
// re-checks the surviving sample: deletes in P can orphan a positive row.
func (k *semijoinKernel) applyUpdate(upd *InstanceUpdate, soft *belief.State) error {
	next := newSemijoinKernel(upd.Classes.witnesses())
	var kept []TranscriptEntry
	for _, e := range k.entries {
		if upd.To.RAlive(e.RIndex) {
			kept = append(kept, e)
		}
	}
	if err := next.rebuild(kept); err != nil {
		return err
	}
	theta, ok, err := next.solver.Consistent(next.sample)
	if err != nil {
		return fmt.Errorf("joininference: %w", err)
	}
	if !ok {
		return ErrInconsistent
	}
	next.current, next.valid = theta, true
	*k = *next
	// Row indexes are stable across versions; only dead rows lose their
	// accumulated evidence.
	if soft != nil {
		soft.Drop(func(ri int) bool { return ri < upd.To.R.Len() && upd.To.RAlive(ri) })
	}
	return nil
}

// attribute is the drop-one criticality test (each probe is a CONS⋉
// decision): an answer scores 1 when removing it changes the witness
// predicate the solver finds, else 0.
func (k *semijoinKernel) attribute(tr []TranscriptEntry, _ int64) ([]float64, []bool) {
	scores, crit := make([]float64, len(tr)), make([]bool, len(tr))
	full, fullOK, err := k.solver.Consistent(k.sample)
	if err != nil {
		return scores, crit
	}
	for i := range tr {
		sm, _ := sampleOf(dropEntries(tr, []int{i}))
		sub, subOK, err := k.solver.Consistent(sm)
		if err == nil && (fullOK != subOK || fullOK && !full.Equal(sub)) {
			scores[i], crit[i] = 1, true
		}
	}
	return scores, crit
}
