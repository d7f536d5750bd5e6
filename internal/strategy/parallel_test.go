package strategy

import (
	"context"
	"math/rand"
	"testing"

	"repro/internal/inference"
	"repro/internal/synth"
)

// TestWorkersDeterministicFastPath: on random one-word instances, NextCtx
// picks the same class at every Workers value, and whole runs ask the same
// number of questions — parallel evaluation must be bit-identical to
// serial.
func TestWorkersDeterministicFastPath(t *testing.T) {
	ctx := context.Background()
	r := rand.New(rand.NewSource(7))
	for trial := 0; trial < 25; trial++ {
		inst := randInstance(r)
		goal := randPred(r, inference.New(inst).U)
		for _, k := range []int{1, 2} {
			e := inference.New(inst)
			serial, err := lookaheadAt(k, 0).NextCtx(ctx, e)
			if err != nil {
				t.Fatal(err)
			}
			for _, w := range []int{1, 4, 16, -1} {
				got, err := lookaheadAt(k, w).NextCtx(ctx, e)
				if err != nil {
					t.Fatal(err)
				}
				if got != serial {
					t.Fatalf("trial %d K=%d workers=%d: picked %d, serial picked %d", trial, k, w, got, serial)
				}
			}
			// Whole-run agreement: identical questions means identical
			// interaction counts and inferred predicates.
			base := inference.New(inst)
			nBase, err := honestRun(base, lookaheadAt(k, 0), goal)
			if err != nil {
				t.Fatal(err)
			}
			for _, w := range []int{4, 16} {
				par := inference.New(inst)
				n, err := honestRun(par, lookaheadAt(k, w), goal)
				if err != nil {
					t.Fatal(err)
				}
				if n != nBase || !par.Result().Equal(base.Result()) {
					t.Fatalf("trial %d K=%d workers=%d: run diverged (%d vs %d interactions)",
						trial, k, w, n, nBase)
				}
			}
		}
	}
}

// TestWorkersDeterministicGeneralPath: the same determinism guarantee on
// a multi-word universe (Ω > 64).
func TestWorkersDeterministicGeneralPath(t *testing.T) {
	ctx := context.Background()
	e := bigInstance(t, 5, 1)
	serial := L2S(0).Next(e)
	for _, w := range []int{1, 4, 16} {
		got, err := L2S(w).NextCtx(ctx, e)
		if err != nil {
			t.Fatal(err)
		}
		if got != serial {
			t.Fatalf("workers=%d: picked %d, serial picked %d", w, got, serial)
		}
	}
}

// TestParallelNextCtxCancellation: a cancelled context aborts a parallel
// L2S decision with the context's error.
func TestParallelNextCtxCancellation(t *testing.T) {
	inst := synth.MustGenerate(synth.Config{AttrsR: 3, AttrsP: 3, Rows: 50, Values: 100}, 5)
	e := inference.New(inst)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	for _, w := range []int{1, 8} {
		ci, err := L2S(w).NextCtx(ctx, e)
		if err != context.Canceled {
			t.Errorf("workers=%d: err = %v, want context.Canceled", w, err)
		}
		if ci != -1 {
			t.Errorf("workers=%d: ci = %d, want -1", w, ci)
		}
	}
}
