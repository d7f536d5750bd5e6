package strategy

import (
	"context"

	"repro/internal/inference"
	"repro/internal/pool"
)

// Lookahead is the lookahead skyline strategy of Section 4.4 at one of its
// two depths: L1S (Algorithm 4) asks about an informative tuple whose
// entropy¹ — the guaranteed number of tuples that labelling it makes
// uninformative — is maximal under the skyline selection rule, and L2S
// (Algorithms 5–6) does the same with entropy², which also counts one
// follow-up question. The zero value is L1S; L1S and L2S build them.
type Lookahead struct {
	// Workers fans each decision across that many goroutines: first the
	// lattice-table fill (one key per item), then the per-candidate
	// entropy² evaluations. 0 and 1 run serially, negative uses one worker
	// per CPU. The reduction applies the exact serial selection rule (max
	// Min, tie-break max Max, first class in class order wins), so the
	// chosen questions — and hence interaction counts — are bit-identical
	// for every Workers value.
	Workers int
	// two selects entropy² (L2S).
	two bool
}

// L1S returns the one-step lookahead strategy on workers goroutines.
func L1S(workers int) Lookahead { return Lookahead{Workers: workers} }

// L2S returns the two-step lookahead strategy on workers goroutines.
func L2S(workers int) Lookahead { return Lookahead{Workers: workers, two: true} }

// Name implements Strategy.
func (l Lookahead) Name() string {
	if l.two {
		return "L2S"
	}
	return "L1S"
}

// Next implements Strategy.
func (l Lookahead) Next(e *inference.Engine) int {
	ci, _ := l.NextCtx(context.Background(), e)
	return ci
}

// NextCtx implements inference.ContextStrategy: identical selection to
// Next, but cancellation is observed between lattice keys and between
// candidate evaluations — an L2S candidate costs one informative-list
// sweep and about 2K Gain sweeps of K positions (K = informative
// classes), so this is the granularity at which aborting an expensive
// decision is worthwhile. With Workers > 1 keys and
// candidates are evaluated concurrently; cancellation is still observed
// per item.
func (l Lookahead) NextCtx(ctx context.Context, e *inference.Engine) (int, error) {
	lk := newLook(e)
	defer lk.release()
	if err := l.evaluate(ctx, lk); err != nil {
		return -1, err
	}
	return selectBest(lk.baseInf, lk.ents), nil
}

// Entropies exposes the entropy¹ or entropy² of every informative class
// for diagnostics and tests (e.g. reproducing Figure 5), computed by the
// same code as NextCtx. The map is keyed by class index.
func (l Lookahead) Entropies(e *inference.Engine) map[int]Entropy {
	lk := newLook(e)
	defer lk.release()
	_ = l.evaluate(context.Background(), lk) // fails only on cancellation
	out := make(map[int]Entropy, len(lk.baseInf))
	for pos, ci := range lk.baseInf {
		out[ci] = lk.ents[pos]
	}
	return out
}

// evaluate fills lk.ents with every candidate's entropy: it builds the
// decision's lattice table, then reduces the candidates.
func (l Lookahead) evaluate(ctx context.Context, lk *look) error {
	if err := lk.build(ctx, l.two, l.Workers); err != nil {
		return err
	}
	if !l.two {
		for pos := range lk.ents {
			lk.ents[pos] = lk.entropy1(pos)
		}
		return nil
	}
	return pool.ForEach(ctx, l.Workers, len(lk.ents), lk.entropy2Fn)
}
