package joininference

import (
	"context"
	"fmt"

	"repro/internal/belief"
	"repro/internal/inference"
	"repro/internal/predicate"
	"repro/internal/strategy"
)

// kernel is what differs between join and semijoin inference; the Session
// is the one driver of Algorithm 1 over it (budget, batching, disputed
// questions, policy cache, soft layer, undo, version moves, snapshots). A key
// names one askable unit: a T-class index for join, whose informativeness
// the engine decides in PTIME (Lemmas 3.3/3.4), and a row of R for
// semijoin, where every such decision embeds the NP-complete CONS⋉
// (Theorem 6.1).
type kernel interface {
	// kind is the snapshot kind (SnapshotKindJoin or SnapshotKindSemijoin).
	kind() string
	universe() *Universe
	// keys is the number of keys; a batch asks at most one question per key.
	keys() int
	// keyOf resolves a ref to its key; errors wrap ErrBadQuestionRef.
	keyOf(ref QuestionRef) (int, error)
	question(key int) Question
	// live is false only for rows deleted by an instance update.
	live(key int) bool
	// labelOf returns key's committed label.
	labelOf(key int) (positive, labeled bool)
	// informative reports whether either answer to key would still shrink
	// the set of consistent predicates.
	informative(key int) (bool, error)
	// askable is the O(1) test a cached pick must pass to be served:
	// informativeness for join, an unlabeled live row for semijoin.
	askable(key int) bool
	// done reports the halt condition Γ.
	done(ctx context.Context) (bool, error)
	// random resolves the join strategy and returns its RND stream (nil
	// for every other strategy and for semijoin); the error is the
	// strategy's.
	random() (*strategy.Random, error)
	// next picks a fetch's first question: the strategy's choice for join,
	// the first informative row in scan order for semijoin; -1 at Γ.
	next(ctx context.Context) (int, error)
	// extend grows picked (next's pick plus pivots already chosen) to up
	// to k pairwise-informative keys; complete reports that the walk
	// exhausted the candidates. Rejection is monotone in the picked set,
	// so the walk resumes after the last pivot.
	extend(ctx context.Context, picked []int, k int) ([]int, bool, error)
	// commit records entry e, an answer about the rows of unlabeled key;
	// on ErrInconsistent the committed state is as it was.
	commit(key int, e TranscriptEntry) error
	// transcript returns the committed answers in order, in a fresh slice.
	transcript() []TranscriptEntry
	// consistent reports whether some predicate satisfies entries.
	consistent(entries []TranscriptEntry) (bool, error)
	// rebuild replaces the committed state with a replay of tr.
	rebuild(tr []TranscriptEntry) error
	// violated marks, over committed plus newEntry (index len(committed)),
	// the negatives that T(S+) of them all selects — the retraction
	// search's tiebreak. Nil when the kernel has no such cheap test.
	violated(committed []TranscriptEntry, newEntry TranscriptEntry) []bool
	inferred() Pred
	// attribute scores each answer of tr's contribution to the inferred
	// predicate (Explain).
	attribute(tr []TranscriptEntry, seed int64) (scores []float64, critical []bool)
}

// joinKernel decides keys (T-class indexes) with the version-space engine.
type joinKernel struct {
	engine *inference.Engine
	// classes holds the engine's T-classes and their shared pair → class
	// index.
	classes *ClassSet

	// strat is resolved through newStrat on first use and dropped whenever
	// the engine is replaced, so nothing retains a stale one.
	strat    inference.Strategy
	stratErr error
	newStrat func() (inference.Strategy, error)

	// batchTPos/batchNegs are the scratch of the batch pairwise scan
	// (mutuallyInformative).
	batchTPos []uint64
	batchNegs []uint64
}

func (k *joinKernel) kind() string        { return SnapshotKindJoin }
func (k *joinKernel) universe() *Universe { return k.engine.U }
func (k *joinKernel) keys() int           { return len(k.engine.Classes()) }
func (k *joinKernel) live(int) bool       { return true }
func (k *joinKernel) askable(ci int) bool { return k.engine.Informative(ci) }
func (k *joinKernel) inferred() Pred      { return k.engine.Result() }
func (k *joinKernel) theta(ci int) Pred   { return k.engine.Classes()[ci].Theta }
func (k *joinKernel) dropStrategy()       { k.strat, k.stratErr = nil, nil }

// entryTheta returns the most specific predicate of a committed entry's
// T-class.
func (k *joinKernel) entryTheta(e TranscriptEntry) Pred {
	return k.theta(k.classIndexFor(e.RIndex, e.PIndex))
}

func (k *joinKernel) keyOf(ref QuestionRef) (int, error) {
	inst := k.engine.Inst
	if ref.Semijoin() {
		return 0, fmt.Errorf("%w: row %d is a semijoin question but this is a join session", ErrBadQuestionRef, ref.RIndex)
	}
	if ref.RIndex < 0 || ref.RIndex >= inst.R.Len() || ref.PIndex < 0 || ref.PIndex >= inst.P.Len() {
		return 0, fmt.Errorf("%w: (%d,%d) out of range (%d×%d product)",
			ErrBadQuestionRef, ref.RIndex, ref.PIndex, inst.R.Len(), inst.P.Len())
	}
	ci := k.classIndexFor(ref.RIndex, ref.PIndex)
	if ci < 0 {
		return 0, fmt.Errorf("%w: (%d,%d) has no T-class in this instance", ErrBadQuestionRef, ref.RIndex, ref.PIndex)
	}
	return ci, nil
}

// classIndexFor finds the T-class of a product tuple, -1 if none, through
// the class set's mask-keyed index: built once per instance version and
// shared by its sessions, it keys T as words computed on the stack, so an
// answer allocates nothing to find its class and replay and undo stay
// linear in the number of answers.
func (k *joinKernel) classIndexFor(ri, pi int) int {
	inst := k.engine.Inst
	return k.classes.index().Of(inst.R.Tuples[ri], inst.P.Tuples[pi])
}

// question materializes the public Question for class ci, asked through
// the class's representative tuple.
func (k *joinKernel) question(ci int) Question {
	c := k.engine.Classes()[ci]
	inst := k.engine.Inst
	return Question{
		RTuple:           inst.R.Tuples[c.RI],
		PTuple:           inst.P.Tuples[c.PI],
		RIndex:           c.RI,
		PIndex:           c.PI,
		EquivalentTuples: c.Count,
		key:              ci,
		u:                k.engine.U,
		inst:             inst,
	}
}

func (k *joinKernel) labelOf(ci int) (positive, labeled bool) { return k.engine.LabelOf(ci) }

func (k *joinKernel) informative(ci int) (bool, error) { return k.engine.Informative(ci), nil }

func (k *joinKernel) done(context.Context) (bool, error) { return k.engine.Done(), nil }

func (k *joinKernel) random() (*strategy.Random, error) {
	if k.strat == nil && k.stratErr == nil {
		k.strat, k.stratErr = k.newStrat()
	}
	r, _ := k.strat.(*strategy.Random)
	return r, k.stratErr
}

// next asks the strategy for its pick, routing through the context-aware
// path when the strategy supports cancellation (the lookahead strategies
// do), and checks the pick.
func (k *joinKernel) next(ctx context.Context) (int, error) {
	if _, err := k.random(); err != nil {
		return -1, err
	}
	var ci int
	if cs, ok := k.strat.(inference.ContextStrategy); ok {
		var err error
		if ci, err = cs.NextCtx(ctx, k.engine); err != nil {
			return -1, fmt.Errorf("joininference: %w", err)
		}
	} else {
		if err := ctx.Err(); err != nil {
			return -1, fmt.Errorf("joininference: %w", err)
		}
		ci = k.strat.Next(k.engine)
	}
	return k.checkPick(ci)
}

// checkPick accepts a strategy's pick only if it is an informative class,
// or a negative value (no question) once no class is informative, so a
// faulty custom strategy fails the fetch that asked it rather than
// panicking, halting early, or failing later in Answer.
func (k *joinKernel) checkPick(ci int) (int, error) {
	n := k.keys()
	switch {
	case ci < 0:
		if !k.engine.Done() {
			return -1, fmt.Errorf("joininference: strategy %s returned no class while informative classes remain", k.strat.Name())
		}
		return -1, nil
	case ci >= n:
		return -1, fmt.Errorf("joininference: strategy %s picked class %d, out of range [0, %d)", k.strat.Name(), ci, n)
	case !k.engine.Informative(ci):
		return -1, fmt.Errorf("joininference: strategy %s picked class %d, which is not informative", k.strat.Name(), ci)
	}
	return ci, nil
}

// extend walks the informative classes in ascending order, skipping the
// strategy's pick (which may sit anywhere) and resuming after the last
// pivot.
func (k *joinKernel) extend(ctx context.Context, picked []int, n int) ([]int, bool, error) {
	after := 0
	if len(picked) > 1 {
		after = picked[len(picked)-1] + 1
	}
	for _, ci := range k.engine.InformativeClasses() {
		if len(picked) >= n {
			return picked, false, nil
		}
		if ci < after || ci == picked[0] {
			continue
		}
		if err := ctx.Err(); err != nil {
			return nil, false, fmt.Errorf("joininference: %w", err)
		}
		if k.pairwiseInformative(ci, picked) {
			picked = append(picked, ci)
		}
	}
	return picked, true, nil
}

// pairwiseInformative reports whether class c stays informative under
// either label of every picked class, and vice versa — the guarantee that
// makes a batch safe to dispatch in parallel.
func (k *joinKernel) pairwiseInformative(c int, picked []int) bool {
	for _, p := range picked {
		if !k.mutuallyInformative(k.theta(p), k.theta(c)) {
			return false
		}
	}
	return true
}

// mutuallyInformative reports whether classes with most specific
// predicates a and b each stay informative under either label of the other
// (informativeness is not symmetric, so all four hypotheticals are
// checked). The hypothetical kernels live in kernel scratch, so the O(k²)
// probes of a batch scan allocate nothing.
func (k *joinKernel) mutuallyInformative(a, b Pred) bool {
	base := k.engine.Certainty()
	for _, pair := range [2][2]Pred{{a, b}, {b, a}} {
		x, y := pair[0].Set.Words(), pair[1].Set.Words()
		pos, neg := base.WithPositive(k.batchTPos, x), base.WithNegative(k.batchNegs, x)
		k.batchTPos, k.batchNegs = pos.TPos, neg.Negs
		if pos.Certain(y) || neg.Certain(y) {
			return false
		}
	}
	return true
}

func (k *joinKernel) commit(ci int, e TranscriptEntry) error {
	err := k.engine.LabelAt(ci, e.RIndex, e.PIndex, Label(e.Positive))
	if err == inference.ErrInconsistent {
		// Label records the example before detecting inconsistency; roll
		// the engine back so the rejected answer leaves no trace.
		tr := k.transcript()
		if rbErr := k.rebuild(tr[:len(tr)-1]); rbErr != nil {
			return fmt.Errorf("joininference: rolling back inconsistent answer: %w", rbErr)
		}
		return ErrInconsistent
	}
	if err != nil {
		return fmt.Errorf("joininference: %w", err)
	}
	return nil
}

func (k *joinKernel) transcript() []TranscriptEntry {
	exs := k.engine.Sample().Examples()
	if len(exs) == 0 {
		return nil // an empty snapshot transcript encodes as null
	}
	out := make([]TranscriptEntry, len(exs))
	for i, ex := range exs {
		out[i] = TranscriptEntry{RIndex: ex.RI, PIndex: ex.PI, Positive: bool(ex.Label)}
	}
	return out
}

// replay labels tr on a fresh engine over the same classes, each entry
// recorded under its own rows.
func (k *joinKernel) replay(tr []TranscriptEntry) (*inference.Engine, error) {
	fresh := inference.New(k.engine.Inst, inference.WithClasses(k.engine.Classes()))
	for _, e := range tr {
		ci := k.classIndexFor(e.RIndex, e.PIndex)
		if ci < 0 {
			return nil, fmt.Errorf("transcript tuple (%d,%d) has no class", e.RIndex, e.PIndex)
		}
		if err := fresh.LabelAt(ci, e.RIndex, e.PIndex, Label(e.Positive)); err != nil {
			return nil, err
		}
	}
	return fresh, nil
}

func (k *joinKernel) consistent(entries []TranscriptEntry) (bool, error) {
	_, err := k.replay(entries)
	return err == nil, nil
}

// rebuild replaces the engine with a fresh one replaying tr (O(answers));
// the strategy is dropped so nothing retains the replaced engine.
func (k *joinKernel) rebuild(tr []TranscriptEntry) error {
	fresh, err := k.replay(tr)
	if err != nil {
		return fmt.Errorf("joininference: internal error replaying transcript: %w", err)
	}
	k.engine = fresh
	k.dropStrategy()
	return nil
}

// violated: an inconsistency always means T(S+) ⊆ some negative's θ, so
// one of those negatives is lying whenever the positives are honest.
func (k *joinKernel) violated(committed []TranscriptEntry, newEntry TranscriptEntry) []bool {
	all := append(committed[:len(committed):len(committed)], newEntry)
	tpos := predicate.Omega(k.engine.U)
	for _, e := range all {
		if e.Positive {
			tpos = tpos.Intersect(k.entryTheta(e))
		}
	}
	out := make([]bool, len(all))
	for i, e := range all {
		out[i] = !e.Positive && tpos.MoreGeneralThan(k.entryTheta(e))
	}
	return out
}

// attribute: exact Banzhaf coalition enumeration for up to 13 answers and
// deterministic seeded sampling beyond.
func (k *joinKernel) attribute(tr []TranscriptEntry, seed int64) ([]float64, []bool) {
	answers := make([]belief.LabeledPred, len(tr))
	for i, e := range tr {
		answers[i] = belief.LabeledPred{Theta: k.entryTheta(e), Positive: e.Positive}
	}
	classes := k.engine.Classes()
	thetas := make([]predicate.Pred, len(classes))
	for i, c := range classes {
		thetas[i] = c.Theta
	}
	return belief.Attribution(k.engine.U, thetas, answers, seed), belief.DropOneCritical(k.engine.U, thetas, answers)
}
