package strategy

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"
	"testing/quick"

	"repro/internal/certainty"
	"repro/internal/inference"
	"repro/internal/paperdata"
	"repro/internal/predicate"
	"repro/internal/sample"
	"repro/internal/synth"
)

// The engine's differential suite: on one-word universes (random
// instances, Figure 5), on the 72-pair universe (two-word loops) and on a
// >128-pair universe (the generic-width loop), the arena engine computes
// exactly legacyLookahead's entropies and asks its question sequences.

// labelHonestly labels up to n random informative classes according to the
// goal and reports how many were labeled.
func labelHonestly(r *rand.Rand, e *inference.Engine, goal predicate.Pred, n int) int {
	labeled := 0
	for q := 0; q < n; q++ {
		inf := e.InformativeClasses()
		if len(inf) == 0 {
			break
		}
		ci := inf[r.Intn(len(inf))]
		c := e.Classes()[ci]
		l := sample.Negative
		if goal.Selects(e.U, e.Inst.R.Tuples[c.RI], e.Inst.P.Tuples[c.PI]) {
			l = sample.Positive
		}
		if err := e.Label(ci, l); err != nil {
			return -1
		}
		labeled++
	}
	return labeled
}

// synthEngine returns an engine over a synthetic instance whose pair
// universe needs exactly words 64-bit words.
func synthEngine(tb testing.TB, cfg synth.Config, seed int64, words int) *inference.Engine {
	tb.Helper()
	e := inference.New(synth.MustGenerate(cfg, seed))
	if w := newLook(e).W; w != words {
		tb.Fatalf("universe of %d pairs spans %d words; want %d", e.U.Size(), w, words)
	}
	return e
}

// bigInstance returns an engine over the 72-pair universe (Ω = 9·8), which
// runs the two-word loops.
func bigInstance(tb testing.TB, rows int, seed int64) *inference.Engine {
	return synthEngine(tb, synth.Config{AttrsR: 9, AttrsP: 8, Rows: rows, Values: 3}, seed, 2)
}

// wideInstance returns an engine over a 132-pair universe (Ω = 12·11),
// which runs the generic-width loop.
func wideInstance(tb testing.TB, seed int64) *inference.Engine {
	return synthEngine(tb, synth.Config{AttrsR: 12, AttrsP: 11, Rows: 4, Values: 3}, seed, 3)
}

// entropiesDiff compares the engine's entropy^k with legacyLookahead's and
// describes the first difference, or returns "".
func entropiesDiff(e *inference.Engine, k int) string {
	got := Lookahead{K: k}.Entropies(e)
	want := legacyLookahead{K: k}.Entropies(e)
	if len(got) != len(want) {
		return fmt.Sprintf("k=%d: %d entries, legacy %d", k, len(got), len(want))
	}
	for ci, g := range got {
		if w, ok := want[ci]; !ok || w != g {
			return fmt.Sprintf("k=%d class %d: arena %v, legacy %v", k, ci, g, w)
		}
	}
	return ""
}

// TestArenaMatchesLegacyFigure5: the engine reproduces the legacy
// entropies of the paper's running example at depths 1–3.
func TestArenaMatchesLegacyFigure5(t *testing.T) {
	e := inference.New(paperdata.Example21())
	for k := 1; k <= 3; k++ {
		if d := entropiesDiff(e, k); d != "" {
			t.Error(d)
		}
	}
}

// TestQuickArenaMatchesLegacySmallUniverse: on random one-word instances
// with random honest partial samples, the engine agrees with the legacy
// implementation for k = 1–3.
func TestQuickArenaMatchesLegacySmallUniverse(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		inst := randInstance(r)
		for k := 1; k <= 3; k++ {
			e := inference.New(inst)
			if labelHonestly(r, e, randPred(r, e.U), r.Intn(4)) < 0 {
				return false
			}
			if d := entropiesDiff(e, k); d != "" {
				t.Log(d)
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

// TestQuickEntropiesMatchWithLabels: the same agreement once several
// classes are labelled — the engine tracks no labelled set along a chain
// (labelled classes are certain under it), where the legacy engine lists
// them explicitly.
func TestQuickEntropiesMatchWithLabels(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		inst := randInstance(r)
		for k := 1; k <= 3; k++ {
			e := inference.New(inst)
			if labelHonestly(r, e, randPred(r, e.U), 2+r.Intn(4)) < 0 {
				return false
			}
			if d := entropiesDiff(e, k); d != "" {
				t.Log(d)
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

// chainAgrees mirrors a random hypothetical extension chain of up to three
// labels on the engine and the legacy state, and reports whether delta and
// the still-informative classes agree after every step — the units
// underneath every entropy computation.
func chainAgrees(r *rand.Rand, e *inference.Engine) bool {
	lk := newLook(e)
	lg := newLegacy(e)
	sc := lk.newScratch(3)
	hs := hyp{k: certainty.Kernel{TPos: lk.base.TPos, Negs: sc.negs}}
	gs := lg.baseState()
	chain := r.Perm(len(lk.baseInf))
	if len(chain) > 3 {
		chain = chain[:3]
	}
	for _, pos := range chain {
		ci := lk.baseInf[pos]
		theta := e.Classes()[ci].Theta
		if r.Intn(2) == 0 {
			gs = gs.withPositive(theta, ci)
			hs = lk.withPositive(hs, pos, sc)
		} else {
			gs = gs.withNegative(theta, ci)
			hs = lk.withNegative(hs, pos)
		}
		if lg.delta(gs) != lk.delta(&hs) {
			return false
		}
		rest := hs.k.InformativeInto(lk.thetas, nil)
		want := lg.informativeUnder(gs)
		if len(rest) != len(want) {
			return false
		}
		for i, pos := range rest {
			if lk.baseInf[pos] != want[i] {
				return false
			}
		}
	}
	return true
}

// TestQuickArenaDeltaMatchesLegacy: along random mirrored extension
// chains, the engine's delta and informative lists equal the legacy
// engine's on random one-word instances with labelled classes, and on the
// two- and three-word universes.
func TestQuickArenaDeltaMatchesLegacy(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		inst := randInstance(r)
		e := inference.New(inst)
		if labelHonestly(r, e, randPred(r, e.U), r.Intn(5)) < 0 {
			return false
		}
		return chainAgrees(r, e)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 80}); err != nil {
		t.Error(err)
	}
	for seed := int64(0); seed < 4; seed++ {
		r := rand.New(rand.NewSource(seed))
		for _, e := range []*inference.Engine{bigInstance(t, 5, seed), wideInstance(t, seed)} {
			if labelHonestly(r, e, randPred(r, e.U), r.Intn(4)) < 0 {
				t.Fatal("labeling failed")
			}
			for trial := 0; trial < 10; trial++ {
				if !chainAgrees(r, e) {
					t.Fatalf("seed %d, %d pairs: chain diverged", seed, e.U.Size())
				}
			}
		}
	}
}

// sweepsAgree follows a random hypothetical chain of up to three labels
// and reports whether, after every step, the kernel's width-specialised
// sweeps (one word, two words) weigh and list every position as its
// generic-width sweep does on the same spans zero-padded to three words.
func sweepsAgree(r *rand.Rand, e *inference.Engine) bool {
	lk := newLook(e)
	sc := lk.newScratch(3)
	hs := hyp{k: certainty.Kernel{TPos: lk.base.TPos, Negs: sc.negs}}
	chain := r.Perm(len(lk.baseInf))
	if len(chain) > 3 {
		chain = chain[:3]
	}
	for _, pos := range chain {
		if r.Intn(2) == 0 {
			hs = lk.withPositive(hs, pos, sc)
		} else {
			hs = lk.withNegative(hs, pos)
		}
		wide := certainty.Kernel{TPos: padSpans(hs.k.TPos, lk.W), Negs: padSpans(hs.k.Negs, lk.W)}
		thetas := padSpans(lk.thetas, lk.W)
		if hs.k.Delta(lk.thetas, lk.weights) != wide.Delta(thetas, lk.weights) {
			return false
		}
		if !slices.Equal(hs.k.InformativeInto(lk.thetas, nil), wide.InformativeInto(thetas, nil)) {
			return false
		}
	}
	return true
}

// padSpans copies w-word spans into 3-word spans, zero-padded.
func padSpans(spans []uint64, w int) []uint64 {
	out := make([]uint64, len(spans)/w*3)
	for i := 0; i < len(spans)/w; i++ {
		copy(out[3*i:], spans[w*i:w*(i+1)])
	}
	return out
}

// TestQuickFastPathMatchesGeneral: the one-word certainty sweep (the fast
// path of every schema in the paper) agrees with the generic-width sweep
// on random one-word instances with random honest partial samples, along
// random hypothetical chains; so does the two-word sweep on the 72-pair
// universe.
func TestQuickFastPathMatchesGeneral(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		inst := randInstance(r)
		e := inference.New(inst)
		if labelHonestly(r, e, randPred(r, e.U), r.Intn(5)) < 0 {
			return false
		}
		return sweepsAgree(r, e)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 80}); err != nil {
		t.Error(err)
	}
	for seed := int64(0); seed < 4; seed++ {
		r := rand.New(rand.NewSource(seed))
		e := bigInstance(t, 5, seed)
		if labelHonestly(r, e, randPred(r, e.U), r.Intn(4)) < 0 {
			t.Fatal("labeling failed")
		}
		for trial := 0; trial < 10; trial++ {
			if !sweepsAgree(r, e) {
				t.Fatalf("seed %d: two-word sweep diverged from the generic one", seed)
			}
		}
	}
}

// TestArenaMatchesLegacyBigUniverse: on the 72-pair universe the engine
// computes exactly the legacy entropies, for k = 1, 2 (and 3 on a smaller
// instance), with and without labelled classes.
func TestArenaMatchesLegacyBigUniverse(t *testing.T) {
	for seed := int64(0); seed < 4; seed++ {
		e := bigInstance(t, 5, seed)
		r := rand.New(rand.NewSource(seed))
		if labelHonestly(r, e, randPred(r, e.U), r.Intn(4)) < 0 {
			t.Fatal("labeling failed")
		}
		for _, k := range []int{1, 2} {
			if d := entropiesDiff(e, k); d != "" {
				t.Errorf("seed %d: %s", seed, d)
			}
		}
	}
	e := bigInstance(t, 4, 1)
	if d := entropiesDiff(e, 3); d != "" {
		t.Error(d)
	}
}

// TestArenaMatchesLegacyWideUniverse: the same agreement on a >128-pair
// universe, where the generic-width loop runs.
func TestArenaMatchesLegacyWideUniverse(t *testing.T) {
	for seed := int64(0); seed < 3; seed++ {
		e := wideInstance(t, seed)
		r := rand.New(rand.NewSource(seed))
		if labelHonestly(r, e, randPred(r, e.U), r.Intn(3)) < 0 {
			t.Fatal("labeling failed")
		}
		for k := 1; k <= 3; k++ {
			if d := entropiesDiff(e, k); d != "" {
				t.Errorf("seed %d: %s", seed, d)
			}
		}
	}
}

// sequencesMatch runs whole interactions for the goal {(0,0)} with the
// engine and the legacy reference side by side on two copies of an
// instance and fails at the first question where they differ.
func sequencesMatch(t *testing.T, mk func() *inference.Engine, arena Lookahead, legacy legacyLookahead) {
	t.Helper()
	e, ref := mk(), mk()
	goal := predicate.FromPairs(e.U, [2]int{0, 0})
	for step := 0; !e.Done(); step++ {
		got := arena.Next(e)
		want := legacy.Next(ref)
		if got != want {
			t.Fatalf("%+v step %d: arena picked %d, legacy picked %d", arena, step, got, want)
		}
		l := honestLabel(e, got, goal)
		if err := e.Label(got, l); err != nil {
			t.Fatal(err)
		}
		if err := ref.Label(want, l); err != nil {
			t.Fatal(err)
		}
	}
	if !ref.Done() {
		t.Fatalf("%+v: legacy engine not done when the arena engine is", arena)
	}
}

// TestArenaSequenceMatchesLegacy: whole interactions on a one-word and on
// the 72-pair universe ask the legacy reference's question sequence at
// every worker count.
func TestArenaSequenceMatchesLegacy(t *testing.T) {
	instances := []func() *inference.Engine{
		func() *inference.Engine {
			return synthEngine(t, synth.Config{AttrsR: 3, AttrsP: 3, Rows: 8, Values: 3}, 2, 1)
		},
		func() *inference.Engine { return bigInstance(t, 5, 1) },
	}
	for _, mk := range instances {
		for _, k := range []int{1, 2} {
			for _, workers := range []int{1, 4} {
				sequencesMatch(t, mk, Lookahead{K: k, Workers: workers}, legacyLookahead{K: k})
			}
		}
	}
}

// allocsPerEval reports the allocations of one depth-2 evaluation of
// every candidate on a reused scratch.
func allocsPerEval(e *inference.Engine) float64 {
	lk := newLook(e)
	const k = 2
	sc := lk.newScratch(k)
	return testing.AllocsPerRun(20, func() {
		for pos := range lk.baseInf {
			lk.entropyAt(pos, k, sc)
		}
	})
}

// TestAllocFreeCandidateEvalOneWord: steady-state candidate evaluation on
// a one-word universe allocates nothing (the allocation-regression guard
// for the Θ(K³) inner loop).
func TestAllocFreeCandidateEvalOneWord(t *testing.T) {
	e := synthEngine(t, synth.Config{AttrsR: 3, AttrsP: 3, Rows: 10, Values: 3}, 1, 1)
	r := rand.New(rand.NewSource(1))
	if labelHonestly(r, e, randPred(r, e.U), 2) < 0 || e.Done() {
		t.Fatal("want a partially labelled instance with informative classes")
	}
	if allocs := allocsPerEval(e); allocs != 0 {
		t.Errorf("candidate evaluation allocates %.1f per run; want 0", allocs)
	}
}

// TestAllocFreeCandidateEvalGeneral: the same guard on the 72-pair
// universe.
func TestAllocFreeCandidateEvalGeneral(t *testing.T) {
	e := bigInstance(t, 5, 1)
	r := rand.New(rand.NewSource(1))
	if labelHonestly(r, e, randPred(r, e.U), 2) < 0 || e.Done() {
		t.Fatal("want a partially labelled instance with informative classes")
	}
	if allocs := allocsPerEval(e); allocs != 0 {
		t.Errorf("candidate evaluation allocates %.1f per run; want 0", allocs)
	}
}
