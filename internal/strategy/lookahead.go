package strategy

import (
	"context"
	"fmt"
	"sync"

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
	// Workers fans the per-candidate entropy^K evaluations across that many
	// goroutines: 0 and 1 evaluate serially, negative uses one worker per
	// CPU. The parallel reduction applies the exact serial selection rule
	// (max Min, tie-break max Max, first class in class order wins), so the
	// chosen questions — and hence interaction counts — are bit-identical
	// for every Workers value.
	Workers int
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
	lk := newLook(e)
	if len(lk.baseInf) == 0 {
		return -1, nil
	}
	var scPool sync.Pool
	ents := make([]Entropy, len(lk.baseInf))
	if err := forEachCandidate(ctx, l.Workers, len(ents), func(pos int) {
		sc, _ := scPool.Get().(*lookScratch)
		if sc == nil {
			sc = lk.newScratch(k)
		}
		ents[pos] = lk.entropyAt(pos, k, sc)
		scPool.Put(sc)
	}); err != nil {
		return -1, err
	}
	return selectBest(lk.baseInf, ents), nil
}

// Entropies exposes the entropy^K of every informative class for
// diagnostics and tests (e.g. reproducing Figure 5). The map is keyed by
// class index.
func (l Lookahead) Entropies(e *inference.Engine) map[int]Entropy {
	k := l.depth()
	lk := newLook(e)
	sc := lk.newScratch(k)
	out := make(map[int]Entropy, len(lk.baseInf))
	for pos, ci := range lk.baseInf {
		out[ci] = lk.entropyAt(pos, k, sc)
	}
	return out
}
