// Package pool provides the per-call bounded fan-out used by the parallel
// hot paths: the lookahead strategies' lattice-table fill and candidate
// evaluation, the policy cache's precompute and the experiment harness'
// task fan-out. Each ForEach call spawns its own goroutines bounded by its
// workers argument; calls are independent (there is no global bound), so
// nesting fan-outs — e.g. parallel experiment tasks each running a
// parallel lookahead — multiplies goroutine counts. Results must land in
// per-index slots; ForEach establishes the happens-before edge between
// those writes and its return, so callers reduce serially afterwards —
// which is what keeps parallel runs bit-identical to serial ones.
package pool

import (
	"context"
	"runtime"
	"sync"
	"sync/atomic"
)

// ForEach runs fn(i) for every i in [0, n), fanning across at most workers
// goroutines. workers follows the convention of every parallelism knob in
// this module: 0 and 1 mean sequential, negative means one worker per CPU.
// Cancellation is observed per item: once ctx is done no further item
// starts and the context's error is returned (items already running
// finish). fn must confine its writes to per-index slots.
//
// A panic in fn reaches the caller on both paths: the serial loop lets it
// unwind, and a worker recovers it, stops handing out indexes and, once
// every worker has returned, ForEach panics again with the first value on
// the calling goroutine, where the caller's recover (an HTTP middleware,
// say) can see it. A panic on a bare goroutine would end the process.
func ForEach(ctx context.Context, workers, n int, fn func(i int)) error {
	if workers < 0 {
		workers = runtime.NumCPU()
	}
	if workers > n {
		workers = n
	}
	if workers <= 1 {
		for i := 0; i < n; i++ {
			if err := ctx.Err(); err != nil {
				return err
			}
			fn(i)
		}
		return nil
	}
	var next atomic.Int64
	var wg sync.WaitGroup
	var once sync.Once
	var failure any
	panicked := false
	wg.Add(workers)
	for w := 0; w < workers; w++ {
		go func() {
			defer wg.Done()
			defer func() {
				if r := recover(); r != nil {
					next.Store(int64(n))
					once.Do(func() { failure, panicked = r, true })
				}
			}()
			for ctx.Err() == nil {
				i := int(next.Add(1)) - 1
				if i >= n {
					return
				}
				fn(i)
			}
		}()
	}
	wg.Wait()
	if panicked {
		panic(failure)
	}
	return ctx.Err()
}
