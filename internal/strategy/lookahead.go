package strategy

import (
	"context"
	"fmt"
	"sort"
	"sync"
	"sync/atomic"

	"repro/internal/inference"
)

// Lookahead is the k-steps lookahead skyline strategy LkS (Section 4.4):
// L1S for K = 1 (Algorithm 4), L2S for K = 2 (Algorithm 6). It asks about
// an informative tuple whose entropy^K — the guaranteed number of tuples
// that labeling it (and K−1 follow-ups) makes uninformative — is maximal
// under the skyline selection rule.
type Lookahead struct {
	// K is the lookahead depth; values < 1 behave as 1.
	K int
	// CountClasses counts distinct T-classes made uninformative instead of
	// tuples. The paper counts tuples; this is an ablation knob.
	CountClasses bool
	// MaxCandidates, when positive and K ≥ 2, restricts the expensive
	// entropy^K evaluation to the MaxCandidates informative classes with
	// the best one-step entropy (a beam). The paper evaluates every
	// informative tuple — set 0 (the default) for the exact algorithm; the
	// beam is an engineering knob for instances with thousands of classes,
	// where exact L2S is Θ(K³) per question. The beam applies at every
	// universe size and every predicate width.
	MaxCandidates int
	// Workers fans the per-candidate entropy^K evaluations across that many
	// goroutines: 0 and 1 evaluate serially, negative uses one worker per
	// CPU. The parallel reduction applies the exact serial selection rule
	// (max Min, tie-break max Max, first class in class order wins), so the
	// chosen questions — and hence interaction counts — are bit-identical
	// for every Workers value.
	Workers int

	// evalCount, when non-nil, is atomically incremented by the number of
	// candidates whose entropy^K NextCtx evaluates after beaming; test
	// instrumentation for the beam and the worker pool.
	evalCount *atomic.Int64
}

// depth is K clamped to at least 1.
func (l Lookahead) depth() int { return max(1, l.K) }

// Name implements Strategy.
func (l Lookahead) Name() string { return fmt.Sprintf("L%dS", l.depth()) }

// Next implements Strategy.
func (l Lookahead) Next(e *inference.Engine) int {
	ci, _ := l.NextCtx(context.Background(), e)
	return ci
}

// NextCtx implements inference.ContextStrategy: identical selection to
// Next, but cancellation is observed between candidate evaluations — each
// one costs Θ(K²) certainty tests at depth 2, so this is the granularity
// at which aborting an expensive L2S decision is worthwhile. With
// Workers > 1 the candidates are evaluated concurrently; cancellation is
// still observed per candidate.
func (l Lookahead) NextCtx(ctx context.Context, e *inference.Engine) (int, error) {
	k := l.depth()
	lk := newLook(e, l.CountClasses)
	if len(lk.baseInf) == 0 {
		return -1, nil
	}
	var scPool sync.Pool
	getScratch := func() *lookScratch {
		if v := scPool.Get(); v != nil {
			return v.(*lookScratch)
		}
		return lk.newScratch(k)
	}
	sc0 := getScratch()
	positions := lk.beamPositions(k, l.MaxCandidates, sc0)
	scPool.Put(sc0)
	ents := make([]Entropy, len(positions))
	if err := forEachCandidate(ctx, l.Workers, len(positions), func(i int) {
		sc := getScratch()
		ents[i] = lk.entropyAt(positions[i], k, sc)
		scPool.Put(sc)
	}); err != nil {
		return -1, err
	}
	if l.evalCount != nil {
		l.evalCount.Add(int64(len(positions)))
	}
	return selectBestPosition(lk.baseInf, positions, ents), nil
}

// beamPositions returns the baseInf positions to evaluate: all of them, or
// — when a beam is configured and the lookahead is deep — the
// MaxCandidates best by one-step entropy (stable order, so runs stay
// deterministic), scored on sc.
func (lk *look) beamPositions(k, maxCandidates int, sc *lookScratch) []int {
	positions := make([]int, len(lk.baseInf))
	for i := range positions {
		positions[i] = i
	}
	if maxCandidates <= 0 || k < 2 || len(positions) <= maxCandidates {
		return positions
	}
	type scored struct {
		idx int
		ent Entropy
	}
	ss := make([]scored, len(positions))
	for i, idx := range positions {
		ss[i] = scored{idx: idx, ent: lk.entropyAt(idx, 1, sc)}
	}
	sort.SliceStable(ss, func(a, b int) bool {
		if ss[a].ent.Min != ss[b].ent.Min {
			return ss[a].ent.Min > ss[b].ent.Min
		}
		return ss[a].ent.Max > ss[b].ent.Max
	})
	out := make([]int, maxCandidates)
	for i := 0; i < maxCandidates; i++ {
		out[i] = ss[i].idx
	}
	sort.Ints(out) // restore class order for deterministic tie-breaking
	return out
}

// Entropies exposes the entropy^K of every informative class for
// diagnostics and tests (e.g. reproducing Figure 5). The map is keyed by
// class index.
func (l Lookahead) Entropies(e *inference.Engine) map[int]Entropy {
	k := l.depth()
	lk := newLook(e, l.CountClasses)
	sc := lk.newScratch(k)
	out := make(map[int]Entropy, len(lk.baseInf))
	for pos, ci := range lk.baseInf {
		out[ci] = lk.entropyAt(pos, k, sc)
	}
	return out
}
