package pool

import (
	"context"
	"errors"
	"sync/atomic"
	"testing"
)

// TestForEachRunsEveryIndexOnce: every index in [0, n) runs exactly once,
// for serial, per-CPU and more-workers-than-items fan-outs.
func TestForEachRunsEveryIndexOnce(t *testing.T) {
	for _, n := range []int{0, 1, 7, 100} {
		for _, workers := range []int{-1, 0, 1, 2, n + 5} {
			runs := make([]atomic.Int32, n)
			if err := ForEach(context.Background(), workers, n, func(i int) { runs[i].Add(1) }); err != nil {
				t.Fatalf("n=%d workers=%d: %v", n, workers, err)
			}
			for i := range runs {
				if got := runs[i].Load(); got != 1 {
					t.Fatalf("n=%d workers=%d: index %d ran %d times", n, workers, i, got)
				}
			}
		}
	}
}

// TestForEachCancellation: a context cancelled before the call runs no
// item, and one cancelled by an item stops the hand-out; both return the
// context's error.
func TestForEachCancellation(t *testing.T) {
	for _, workers := range []int{1, 4} {
		ctx, cancel := context.WithCancel(context.Background())
		cancel()
		var ran atomic.Int32
		if err := ForEach(ctx, workers, 50, func(int) { ran.Add(1) }); !errors.Is(err, context.Canceled) {
			t.Errorf("workers=%d, cancelled before: err = %v, want context.Canceled", workers, err)
		}
		if ran.Load() != 0 {
			t.Errorf("workers=%d, cancelled before: %d items ran", workers, ran.Load())
		}

		ctx, cancel = context.WithCancel(context.Background())
		ran.Store(0)
		const n = 10000
		err := ForEach(ctx, workers, n, func(i int) {
			ran.Add(1)
			if i == 3 {
				cancel()
			}
		})
		cancel()
		if !errors.Is(err, context.Canceled) {
			t.Errorf("workers=%d, cancelled by an item: err = %v, want context.Canceled", workers, err)
		}
		// Only items handed out before the cancel, at most one per worker
		// after it, may run.
		if got := ran.Load(); got >= n {
			t.Errorf("workers=%d: all %d items ran after cancel", workers, got)
		}
	}
}

// TestForEachPanicReachesCaller: a panicking fn panics the caller with the
// same value, on the serial and on the parallel path, and on the parallel
// path no index is handed out once a worker has panicked.
func TestForEachPanicReachesCaller(t *testing.T) {
	type boom struct{ at int }
	for _, workers := range []int{1, 2, 4, -1} {
		var ran atomic.Int32
		const n = 100000
		got := func() (r any) {
			defer func() { r = recover() }()
			_ = ForEach(context.Background(), workers, n, func(i int) {
				ran.Add(1)
				if i == 5 {
					panic(boom{at: i})
				}
			})
			return nil
		}()
		if got != (boom{at: 5}) {
			t.Fatalf("workers=%d: caller recovered %v, want %v", workers, got, boom{at: 5})
		}
		if ran.Load() >= n {
			t.Errorf("workers=%d: all %d items ran after the panic", workers, n)
		}
	}
}
