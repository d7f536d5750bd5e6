package strategy

import (
	"context"

	"repro/internal/pool"
)

// The per-candidate entropy^K evaluations of NextCtx are independent —
// each works on its own hypothetical extension of the base sample and only
// reads shared state — so they fan across cores with the per-call bounded
// fan-out of internal/pool. Selection stays bit-identical to the serial
// path because results land in per-candidate slots and the reduction runs
// serially in class order afterwards (see selectBest).

// forEachCandidate runs eval(i) for every i in [0, n) on the worker pool;
// cancellation is observed per candidate. workers follows the shared
// convention: 0/1 serial, negative = one worker per CPU.
func forEachCandidate(ctx context.Context, workers, n int, eval func(i int)) error {
	return pool.ForEach(ctx, workers, n, eval)
}
