package strategy

import (
	"context"
	"math/rand"
	"strconv"
	"testing"

	"repro/internal/inference"
	"repro/internal/relation"
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
			serial, err := Lookahead{K: k}.NextCtx(ctx, e)
			if err != nil {
				t.Fatal(err)
			}
			for _, w := range []int{1, 4, 16, -1} {
				got, err := Lookahead{K: k, Workers: w}.NextCtx(ctx, e)
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
			nBase, err := honestRun(base, Lookahead{K: k}, goal)
			if err != nil {
				t.Fatal(err)
			}
			for _, w := range []int{4, 16} {
				par := inference.New(inst)
				n, err := honestRun(par, Lookahead{K: k, Workers: w}, goal)
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
	serial := (Lookahead{K: 2}).Next(e)
	for _, w := range []int{1, 4, 16} {
		got, err := Lookahead{K: 2, Workers: w}.NextCtx(ctx, e)
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
		ci, err := Lookahead{K: 2, Workers: w}.NextCtx(ctx, e)
		if err != context.Canceled {
			t.Errorf("workers=%d: err = %v, want context.Canceled", w, err)
		}
		if ci != -1 {
			t.Errorf("workers=%d: ci = %d, want -1", w, ci)
		}
	}
}

// TestDeepLookaheadOnArena: K = 9 runs on the one engine — its per-level
// scratch slots are sized from K, so no depth needs a fallback — and
// matches the legacy reference's entropies and question. The instance has
// one class per pair (R.A = P.Bi) plus the ∅ class, so all-negative chains
// run eight labels deep while the recursion stays small.
func TestDeepLookaheadOnArena(t *testing.T) {
	const n = 8
	attrs := make([]string, n)
	for i := range attrs {
		attrs[i] = "B" + strconv.Itoa(i+1)
	}
	R := relation.NewRelation(relation.MustSchema("R", "A"))
	P := relation.NewRelation(relation.MustSchema("P", attrs...))
	R.Tuples = append(R.Tuples, relation.Tuple{"0"})
	for i := 0; i <= n; i++ {
		tp := make(relation.Tuple, n)
		for j := range tp {
			tp[j] = "1"
		}
		if i < n {
			tp[i] = "0"
		}
		P.Tuples = append(P.Tuples, tp)
	}
	e := inference.New(relation.MustInstance(R, P))
	const k = 9
	if d := entropiesDiff(e, k); d != "" {
		t.Fatal(d)
	}
	ci, err := Lookahead{K: k, Workers: 4}.NextCtx(context.Background(), e)
	if err != nil {
		t.Fatal(err)
	}
	if want := (legacyLookahead{K: k}).Next(e); ci != want {
		t.Fatalf("K=%d picked %d; legacy picked %d", k, ci, want)
	}
}
