package strategy

import (
	"context"
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

// lookaheadAt returns the lookahead strategy of depth k (1 or 2).
func lookaheadAt(k, workers int) Lookahead {
	if k == 2 {
		return L2S(workers)
	}
	return L1S(workers)
}

// entropiesDiff compares the engine's serial entropy^k with
// legacyLookahead's and describes the first difference, or returns "".
func entropiesDiff(e *inference.Engine, k int) string { return entropiesDiffAt(e, k, 1) }

// entropiesDiffAt is entropiesDiff on workers goroutines.
func entropiesDiffAt(e *inference.Engine, k, workers int) string {
	got := lookaheadAt(k, workers).Entropies(e)
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
// entropies of the paper's running example at depths 1 and 2.
func TestArenaMatchesLegacyFigure5(t *testing.T) {
	e := inference.New(paperdata.Example21())
	for k := 1; k <= 2; k++ {
		if d := entropiesDiff(e, k); d != "" {
			t.Error(d)
		}
	}
}

// TestQuickArenaMatchesLegacySmallUniverse: on random one-word instances
// with random honest partial samples, the engine agrees with the legacy
// implementation for k = 1 and 2.
func TestQuickArenaMatchesLegacySmallUniverse(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		inst := randInstance(r)
		for k := 1; k <= 2; k++ {
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
// classes are labelled — the engine tracks no labelled set (labelled
// classes are certain under their extension, and each leaf subtracts its
// depth), where the legacy engine lists them explicitly.
func TestQuickEntropiesMatchWithLabels(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		inst := randInstance(r)
		for k := 1; k <= 2; k++ {
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

// leavesAgree labels a random pair of base-informative classes i ≠ j
// hypothetically, with every sign, on the engine's lattice table and on
// the legacy state, and reports whether every depth-1 and depth-2 delta
// and both branches' informative lists agree — the units underneath every
// entropy computation.
func leavesAgree(r *rand.Rand, e *inference.Engine) bool {
	lk := newLook(e)
	defer lk.release()
	if len(lk.baseInf) < 2 {
		return true
	}
	if lk.build(context.Background(), true, 1) != nil {
		return false
	}
	lg := newLegacy(e)
	gs := lg.baseState()
	perm := r.Perm(len(lk.baseInf))
	i, j := perm[0], perm[1]
	ci, cj := lk.baseInf[i], lk.baseInf[j]
	thi, thj := e.Classes()[ci].Theta, e.Classes()[cj].Theta
	ti, tj := lk.meet(i), lk.meet(j)
	tij := make([]uint64, lk.W)
	and(tij, ti, tj)
	tab := &lk.tab
	slot, sij := lk.meetSlot[i], tab.find(tij)
	if sij < 0 || tab.find(ti) != slot {
		return false
	}
	ip, in := gs.withPositive(thi, ci), gs.withNegative(thi, ci)
	ki := certainty.Kernel{TPos: ti, Negs: lk.base.Negs}
	kj := certainty.Kernel{TPos: tj, Negs: lk.base.Negs}
	leaves := []struct{ legacy, engine int64 }{
		{lg.delta(ip), tab.pos[slot] - 1},
		{lg.delta(in), tab.neg[slot] - 1},
		{lg.delta(ip.withPositive(thj, cj)), tab.pos[sij] - 2},
		{lg.delta(in.withNegative(thj, cj)), tab.neg[slot] + tab.neg[lk.meetSlot[j]] - tab.neg[sij] - 2},
		{lg.delta(ip.withNegative(thj, cj)), tab.pos[slot] + ki.Gain(lk.thetas, lk.weights, lk.theta(j)) - 2},
		{lg.delta(in.withPositive(thj, cj)), tab.pos[lk.meetSlot[j]] + kj.Gain(lk.thetas, lk.weights, lk.theta(i)) - 2},
	}
	for _, leaf := range leaves {
		if leaf.legacy != leaf.engine {
			return false
		}
	}
	for _, branch := range []struct {
		rest []int32
		want []int
	}{
		{ki.InformativeInto(lk.thetas, nil), lg.informativeUnder(ip)},
		{lk.outside(ti, nil), lg.informativeUnder(in)},
	} {
		if len(branch.rest) != len(branch.want) {
			return false
		}
		for k, pos := range branch.rest {
			if lk.baseInf[pos] != branch.want[k] {
				return false
			}
		}
	}
	return true
}

// TestQuickArenaDeltaMatchesLegacy: for random pairs of classes, every
// leaf the engine reads from its lattice table or adds a Gain sweep to,
// and both branches' informative lists, equal the legacy engine's on
// random one-word instances with labelled classes, and on the two- and
// three-word universes.
func TestQuickArenaDeltaMatchesLegacy(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		inst := randInstance(r)
		e := inference.New(inst)
		if labelHonestly(r, e, randPred(r, e.U), r.Intn(5)) < 0 {
			return false
		}
		return leavesAgree(r, e)
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
				if !leavesAgree(r, e) {
					t.Fatalf("seed %d, %d pairs: a leaf diverged", seed, e.U.Size())
				}
			}
		}
	}
}

// sweepsAgree follows a random hypothetical chain of up to three labels
// and reports whether, after every step, the kernel's width-specialised
// sweeps (one word, two words) weigh and list every position, and weigh
// the gain of a random extra negative, as its generic-width sweep does on
// the same spans zero-padded to three words.
func sweepsAgree(r *rand.Rand, e *inference.Engine) bool {
	lk := newLook(e)
	defer lk.release()
	k := certainty.Kernel{TPos: slices.Clone(lk.base.TPos), Negs: slices.Clone(lk.base.Negs)}
	chain := r.Perm(len(lk.baseInf))
	if len(chain) > 3 {
		chain = chain[:3]
	}
	for _, pos := range chain {
		if r.Intn(2) == 0 {
			k = k.WithPositive(nil, lk.theta(pos))
		} else {
			k = k.WithNegative(nil, lk.theta(pos))
		}
		wide := certainty.Kernel{TPos: padSpans(k.TPos, lk.W), Negs: padSpans(k.Negs, lk.W)}
		thetas := padSpans(lk.thetas, lk.W)
		if k.Delta(lk.thetas, lk.weights) != wide.Delta(thetas, lk.weights) {
			return false
		}
		if !slices.Equal(k.InformativeInto(lk.thetas, nil), wide.InformativeInto(thetas, nil)) {
			return false
		}
		x := r.Intn(len(lk.baseInf))
		if k.Gain(lk.thetas, lk.weights, lk.theta(x)) != wide.Gain(thetas, lk.weights, padSpans(lk.theta(x), lk.W)) {
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
// computes exactly the legacy entropies, for k = 1 and 2 and at every
// worker count, with and without labelled classes.
func TestArenaMatchesLegacyBigUniverse(t *testing.T) {
	for seed := int64(0); seed < 4; seed++ {
		e := bigInstance(t, 5, seed)
		r := rand.New(rand.NewSource(seed))
		if labelHonestly(r, e, randPred(r, e.U), r.Intn(4)) < 0 {
			t.Fatal("labeling failed")
		}
		for _, k := range []int{1, 2} {
			for _, workers := range []int{1, 4} {
				if d := entropiesDiffAt(e, k, workers); d != "" {
					t.Errorf("seed %d workers %d: %s", seed, workers, d)
				}
			}
		}
	}
}

// TestArenaMatchesLegacyWideUniverse: the same agreement on a >128-pair
// universe, where the generic-width loops run.
func TestArenaMatchesLegacyWideUniverse(t *testing.T) {
	for seed := int64(0); seed < 3; seed++ {
		e := wideInstance(t, seed)
		r := rand.New(rand.NewSource(seed))
		if labelHonestly(r, e, randPred(r, e.U), r.Intn(3)) < 0 {
			t.Fatal("labeling failed")
		}
		for _, k := range []int{1, 2} {
			for _, workers := range []int{1, 4} {
				if d := entropiesDiffAt(e, k, workers); d != "" {
					t.Errorf("seed %d workers %d: %s", seed, workers, d)
				}
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

// TestArenaSequenceMatchesLegacy: whole interactions on a one-word, the
// 72-pair and a 132-pair universe ask the legacy reference's question
// sequence at every worker count.
func TestArenaSequenceMatchesLegacy(t *testing.T) {
	instances := []func() *inference.Engine{
		func() *inference.Engine {
			return synthEngine(t, synth.Config{AttrsR: 3, AttrsP: 3, Rows: 8, Values: 3}, 2, 1)
		},
		func() *inference.Engine { return bigInstance(t, 5, 1) },
		func() *inference.Engine { return wideInstance(t, 1) },
	}
	for _, mk := range instances {
		for _, k := range []int{1, 2} {
			for _, workers := range []int{1, 4} {
				sequencesMatch(t, mk, lookaheadAt(k, workers), legacyLookahead{K: k})
			}
		}
	}
}

// allocsPerEval reports the allocations of one entropy² evaluation of
// every candidate on a reused scratch, and of a repeated decision's table
// build on a reused look.
func allocsPerEval(e *inference.Engine) (eval, build float64) {
	lk := newLook(e)
	defer lk.release()
	ctx := context.Background()
	if lk.build(ctx, true, 1) != nil {
		return -1, -1
	}
	sc := lk.newScratch()
	eval = testing.AllocsPerRun(20, func() {
		for pos := range lk.baseInf {
			lk.entropy2(pos, sc)
		}
	})
	build = testing.AllocsPerRun(20, func() { _ = lk.build(ctx, true, 1) })
	return eval, build
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
	if eval, build := allocsPerEval(e); eval != 0 || build != 0 {
		t.Errorf("candidate evaluation allocates %.1f per run, a repeated table build %.1f; want 0", eval, build)
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
	if eval, build := allocsPerEval(e); eval != 0 || build != 0 {
		t.Errorf("candidate evaluation allocates %.1f per run, a repeated table build %.1f; want 0", eval, build)
	}
}
