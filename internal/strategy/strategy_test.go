package strategy

import (
	"fmt"
	"math/rand"
	"strconv"
	"testing"
	"testing/quick"

	"repro/internal/inference"
	"repro/internal/paperdata"
	"repro/internal/predicate"
	"repro/internal/relation"
	"repro/internal/sample"
)

// classFor returns the engine class index whose Theta equals T(ri, pi).
func classFor(e *inference.Engine, ri, pi int) int {
	theta := predicate.T(e.U, e.Inst.R.Tuples[ri], e.Inst.P.Tuples[pi])
	for ci, c := range e.Classes() {
		if c.Theta.Equal(theta) {
			return ci
		}
	}
	return -1
}

// honestLabel is the honest user's answer for class ci: positive iff the
// goal selects the class's representative tuple.
func honestLabel(e *inference.Engine, ci int, goal predicate.Pred) sample.Label {
	c := e.Classes()[ci]
	return sample.Label(goal.Selects(e.U, e.Inst.R.Tuples[c.RI], e.Inst.P.Tuples[c.PI]))
}

// honestRun drives strat against an honest user for goal until no
// informative class remains (Algorithm 1) and returns the number of
// questions. Every pick must be an informative class, so a run asks at
// most one question per class.
func honestRun(e *inference.Engine, strat inference.Strategy, goal predicate.Pred) (int, error) {
	n := 0
	for !e.Done() {
		ci := strat.Next(e)
		if ci < 0 || ci >= len(e.Classes()) || !e.Informative(ci) {
			return n, fmt.Errorf("%s picked %d, not an informative class", strat.Name(), ci)
		}
		n++
		if err := e.Label(ci, honestLabel(e, ci, goal)); err != nil {
			return n, err
		}
	}
	return n, nil
}

func runWith(t *testing.T, strat inference.Strategy, goal predicate.Pred) int {
	t.Helper()
	return runOn(t, paperdata.Example21(), strat, goal)
}

// runOn drives strat on inst against an honest user for goal, checks the
// result is instance-equivalent to the goal, and returns the number of
// questions.
func runOn(t *testing.T, inst *relation.Instance, strat inference.Strategy, goal predicate.Pred) int {
	t.Helper()
	e := inference.New(inst)
	n, err := honestRun(e, strat, goal)
	if err != nil {
		t.Fatalf("%s run: %v", strat.Name(), err)
	}
	// Sanity: instance equivalence.
	gj := predicate.Join(inst, e.U, goal)
	rj := predicate.Join(inst, e.U, e.Result())
	if len(gj) != len(rj) {
		t.Fatalf("%s: result %v not equivalent to goal %v", strat.Name(), e.Result(), goal)
	}
	return n
}

func TestNames(t *testing.T) {
	if (BottomUp{}).Name() != "BU" {
		t.Error("BU name")
	}
	if NewTopDown().Name() != "TD" {
		t.Error("TD name")
	}
	if NewRandom(1).Name() != "RND" {
		t.Error("RND name")
	}
	if L1S(0).Name() != "L1S" {
		t.Error("L1S name")
	}
	if L2S(0).Name() != "L2S" {
		t.Error("L2S name")
	}
	if (Lookahead{}).Name() != "L1S" {
		t.Error("K=0 should behave as L1S")
	}
	if NewOptimal().Name() != "OPT" {
		t.Error("OPT name")
	}
}

// TestBUFirstAsksEmptyPredicate: Section 4.3 — BU first asks the tuple
// t0 = (t3,t1') corresponding to ∅; if positive, one interaction suffices;
// the strategy then proceeds with (t2,t1') for {(A1,B3)}.
func TestBUWalkthrough(t *testing.T) {
	inst := paperdata.Example21()
	e := inference.New(inst)
	bu := BottomUp{}
	first := bu.Next(e)
	if got := e.Classes()[first].Theta; !got.IsEmpty() {
		t.Fatalf("BU first pick has T = %v, want ∅", got)
	}
	// Goal ∅: one interaction.
	if n := runWith(t, BottomUp{}, predicate.Empty()); n != 1 {
		t.Errorf("BU on goal ∅: %d interactions, want 1", n)
	}
	// Negative answer ⇒ next pick is the size-1 class {(A1,B3)}.
	if err := e.Label(first, sample.Negative); err != nil {
		t.Fatal(err)
	}
	second := bu.Next(e)
	want := predicate.FromPairs(e.U, [2]int{0, 2})
	if !e.Classes()[second].Theta.Equal(want) {
		t.Errorf("BU second pick = %v, want %v", e.Classes()[second].Theta, want)
	}
}

// TestBUWorstCaseLabelsEverything: with goal Ω (all answers negative), BU
// asks about every class — the drawback Section 4.3 points out.
func TestBUWorstCaseLabelsEverything(t *testing.T) {
	n := runWith(t, BottomUp{}, predicate.Pred{Set: predicate.Omega(predicate.NewUniverse(paperdata.Example21())).Set})
	if n != 12 {
		t.Errorf("BU on goal Ω: %d interactions, want 12 (all classes)", n)
	}
}

// TestTDWalkthrough: Section 4.3 — with an empty sample TD asks tuples
// corresponding to ⊆-maximal predicates.
func TestTDWalkthrough(t *testing.T) {
	inst := paperdata.Example21()
	e := inference.New(inst)
	td := NewTopDown()
	first := td.Next(e)
	theta := e.Classes()[first].Theta
	// Must be one of the 7 maximal classes.
	for ci, c := range e.Classes() {
		if ci == first {
			continue
		}
		if theta.Set.ProperSubsetOf(c.Theta.Set) {
			t.Fatalf("TD first pick %v is below %v", theta, c.Theta)
		}
	}
	// After a positive example TD behaves as BU: smallest informative.
	if err := e.Label(first, sample.Positive); err != nil {
		t.Fatal(err)
	}
	if !e.Done() {
		next := td.Next(e)
		min := -1
		for ci := range e.Classes() {
			if e.Informative(ci) {
				if min == -1 || e.Classes()[ci].Theta.Size() < min {
					min = e.Classes()[ci].Theta.Size()
				}
			}
		}
		if e.Classes()[next].Theta.Size() != min {
			t.Errorf("TD after positive picked size %d, min is %d", e.Classes()[next].Theta.Size(), min)
		}
	}
}

// TestTDBetterThanBUOnOmega: TD infers goal Ω without labeling the whole
// product (Lemma 3.4 prunes below each negative maximal node).
func TestTDBetterThanBUOnOmega(t *testing.T) {
	u := predicate.NewUniverse(paperdata.Example21())
	goal := predicate.Omega(u)
	nTD := runWith(t, NewTopDown(), goal)
	nBU := runWith(t, BottomUp{}, goal)
	if nTD >= nBU {
		t.Errorf("TD (%d) should beat BU (%d) on goal Ω", nTD, nBU)
	}
	// Labeling the 7 maximal classes negative leaves everything below
	// certain-negative: exactly 7 interactions.
	if nTD != 7 {
		t.Errorf("TD on goal Ω: %d interactions, want 7", nTD)
	}
}

// TestEntropyFigure5 recomputes the entropy of every tuple of the empty
// sample against Figure 5.
//
// One cell of the figure disagrees with the paper's own Lemma 3.3: for
// (t2,t1') with T = {(A1,B3)} the figure claims u+ = 2, but four classes
// are ⊇-supersets of {(A1,B3)} ((t1,t1'), (t1,t3'), (t2,t3'), (t3,t2')),
// all of which Lemma 3.3 makes certain positive, so u+ = 4 and the entropy
// is (1,4), not (1,2). Every other row matches the figure exactly; see
// EXPERIMENTS.md. We assert the lemma-correct values.
func TestEntropyFigure5(t *testing.T) {
	inst := paperdata.Example21()
	e := inference.New(inst)
	ent := L1S(0).Entropies(e)

	want := map[[2]int]Entropy{
		{0, 0}: {0, 2},  // (t1,t1')
		{0, 1}: {0, 1},  // (t1,t2')
		{0, 2}: {1, 2},  // (t1,t3')
		{1, 0}: {1, 4},  // (t2,t1') — figure says (1,2); see comment above
		{1, 1}: {1, 1},  // (t2,t2')
		{1, 2}: {0, 4},  // (t2,t3')
		{2, 0}: {0, 11}, // (t3,t1')
		{2, 1}: {0, 2},  // (t3,t2')
		{2, 2}: {0, 1},  // (t3,t3')
		{3, 0}: {0, 2},  // (t4,t1')
		{3, 1}: {1, 1},  // (t4,t2')
		{3, 2}: {0, 1},  // (t4,t3')
	}
	for pr, w := range want {
		ci := classFor(e, pr[0], pr[1])
		got, ok := ent[ci]
		if !ok {
			t.Errorf("(t%d,t%d') missing from entropies", pr[0]+1, pr[1]+1)
			continue
		}
		if got != w {
			t.Errorf("entropy(t%d,t%d') = %v, want %v", pr[0]+1, pr[1]+1, got, w)
		}
	}
}

// TestL1SFirstPick: with the lemma-correct entropies, the maximal Min is 1
// and among Min=1 entropies the largest Max is 4, so L1S picks (t2,t1').
func TestL1SFirstPick(t *testing.T) {
	inst := paperdata.Example21()
	e := inference.New(inst)
	ci := L1S(0).Next(e)
	if want := classFor(e, 1, 0); ci != want {
		t.Errorf("L1S first pick = class %d (%v), want (t2,t1')",
			ci, e.Classes()[ci].Theta)
	}
}

// TestEntropy2Walkthrough replays the Section 4.4 example: with
// S = {((t1,t3'),+), ((t3,t1'),−)}, entropy²((t2,t1')) = (3,3).
func TestEntropy2Walkthrough(t *testing.T) {
	inst := paperdata.Example21()
	e := inference.New(inst)
	if err := e.Label(classFor(e, 0, 2), sample.Positive); err != nil {
		t.Fatal(err)
	}
	if err := e.Label(classFor(e, 2, 0), sample.Negative); err != nil {
		t.Fatal(err)
	}
	ent := L2S(0).Entropies(e)
	ci := classFor(e, 1, 0) // (t2,t1')
	got, ok := ent[ci]
	if !ok {
		t.Fatal("(t2,t1') should be informative")
	}
	if (got != Entropy{3, 3}) {
		t.Errorf("entropy²((t2,t1')) = %v, want (3,3)", got)
	}
	// The positive branch ends the interaction: verify via the branch
	// detail — labeling (t2,t1') positive leaves no informative tuple.
	e2 := inference.New(inst)
	e2.Label(classFor(e2, 0, 2), sample.Positive)
	e2.Label(classFor(e2, 2, 0), sample.Negative)
	e2.Label(classFor(e2, 1, 0), sample.Positive)
	if !e2.Done() {
		t.Error("labeling (t2,t1') positive should end the interaction")
	}
}

func TestSkyline(t *testing.T) {
	E := []Entropy{{0, 2}, {0, 1}, {1, 2}, {1, 1}, {0, 4}, {0, 11}}
	sky := Skyline(E)
	want := map[Entropy]bool{{1, 2}: true, {0, 11}: true}
	if len(sky) != 2 {
		t.Fatalf("skyline = %v, want [(1,2) (0,11)]", sky)
	}
	for _, e := range sky {
		if !want[e] {
			t.Errorf("unexpected skyline entry %v", e)
		}
	}
	// Duplicates collapse.
	if got := Skyline([]Entropy{{1, 1}, {1, 1}}); len(got) != 1 {
		t.Errorf("duplicate skyline = %v", got)
	}
}

func TestDominates(t *testing.T) {
	if !(Entropy{1, 2}).Dominates(Entropy{1, 1}) {
		t.Error("(1,2) should dominate (1,1)")
	}
	if !(Entropy{1, 2}).Dominates(Entropy{0, 2}) {
		t.Error("(1,2) should dominate (0,2)")
	}
	if (Entropy{1, 2}).Dominates(Entropy{2, 2}) {
		t.Error("(1,2) should not dominate (2,2)")
	}
	if (Entropy{1, 2}).Dominates(Entropy{0, 3}) {
		t.Error("(1,2) should not dominate (0,3)")
	}
}

// TestAllStrategiesInferAllGoals: every strategy infers an
// instance-equivalent predicate for every non-nullable goal of Example 2.1
// plus Ω, within |classes| interactions.
func TestAllStrategiesInferAllGoals(t *testing.T) {
	inst := paperdata.Example21()
	u := predicate.NewUniverse(inst)
	e0 := inference.New(inst)
	goals := []predicate.Pred{predicate.Omega(u)}
	for _, c := range e0.Classes() {
		goals = append(goals, c.Theta)
	}
	strats := []func() inference.Strategy{
		func() inference.Strategy { return BottomUp{} },
		func() inference.Strategy { return NewTopDown() },
		func() inference.Strategy { return NewRandom(42) },
		func() inference.Strategy { return L1S(0) },
		func() inference.Strategy { return L2S(0) },
	}
	for _, mk := range strats {
		for gi, goal := range goals {
			strat := mk()
			if n := runWith(t, strat, goal); n > 12 {
				t.Errorf("%s goal %d: %d interactions", strat.Name(), gi, n)
			}
		}
	}
}

// TestOptimalIsLowerBound: on Example 2.1 and on random instances within
// OPT's class bound that ask at least one question, the minimax-optimal
// worst case is a lower bound for every built-in strategy's worst case, and
// OPT attains it. The goals are every predicate over Ω, so every consistent
// answer path is some goal's honest run and the worst case over the goals
// is the strategy's worst case.
func TestOptimalIsLowerBound(t *testing.T) {
	insts := []*relation.Instance{paperdata.Example21()}
	r := rand.New(rand.NewSource(1))
	for len(insts) < 31 {
		inst := randInstance(r)
		if e := inference.New(inst); len(e.Classes()) <= DefaultMaxClasses && NewOptimal().Cost(e) > 0 {
			insts = append(insts, inst)
		}
	}
	for n, inst := range insts {
		e := inference.New(inst)
		opt := NewOptimal()
		optWorst := opt.Cost(e)
		if optWorst <= 0 || optWorst > len(e.Classes()) {
			t.Fatalf("instance %d: optimal worst case = %d over %d classes", n, optWorst, len(e.Classes()))
		}
		var goals []predicate.Pred
		for mask := 0; mask < 1<<e.U.Size(); mask++ {
			var goal predicate.Pred
			for id := 0; id < e.U.Size(); id++ {
				if mask>>id&1 == 1 {
					goal.Set.Add(id)
				}
			}
			goals = append(goals, goal)
		}
		for _, mk := range []func() inference.Strategy{
			func() inference.Strategy { return BottomUp{} },
			func() inference.Strategy { return NewTopDown() },
			func() inference.Strategy { return NewRandom(7) },
			func() inference.Strategy { return L1S(0) },
			func() inference.Strategy { return L2S(0) },
		} {
			worst := 0
			name := ""
			for _, goal := range goals {
				strat := mk()
				name = strat.Name()
				worst = max(worst, runOn(t, inst, strat, goal))
			}
			if worst < optWorst {
				t.Errorf("instance %d: %s worst case %d beats the optimal %d — minimax bug", n, name, worst, optWorst)
			}
		}

		// The optimal strategy itself achieves its own bound.
		worst := 0
		for _, goal := range goals {
			worst = max(worst, runOn(t, inst, opt, goal))
		}
		if worst != optWorst {
			t.Errorf("instance %d: OPT achieved worst case %d, minimax value is %d", n, worst, optWorst)
		}
	}
}

func TestOptimalPanicsOnLargeInstances(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("Optimal did not panic beyond MaxClasses")
		}
	}()
	inst := paperdata.Example21()
	e := inference.New(inst)
	o := &Optimal{MaxClasses: 3}
	o.Next(e)
}

// TestQuickTDOmegaCostsMaximalClasses: with goal Ω (all answers negative)
// TD labels at most the ⊆-maximal classes — the pruning argument of
// Section 4.3 — on random instances.
func TestQuickTDOmegaCostsMaximalClasses(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		inst := randInstance(r)
		e := inference.New(inst)
		// Count ⊆-maximal classes.
		maxCount := 0
		for i, c := range e.Classes() {
			maximal := true
			for j, d := range e.Classes() {
				if i != j && c.Theta.Set.ProperSubsetOf(d.Theta.Set) {
					maximal = false
					break
				}
			}
			if maximal {
				maxCount++
			}
		}
		goal := predicate.Omega(e.U)
		// Goal Ω may select tuples (if some class has T = Ω they are
		// positive); restrict to instances where Ω selects nothing so all
		// answers are negative.
		for _, c := range e.Classes() {
			if goal.MoreGeneralThan(c.Theta) {
				return true // skip: Ω non-nullable here
			}
		}
		n, err := honestRun(e, NewTopDown(), goal)
		if err != nil {
			return false
		}
		return n <= maxCount
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 80}); err != nil {
		t.Error(err)
	}
}

func TestRandomReproducible(t *testing.T) {
	inst := paperdata.Example21()
	u := predicate.NewUniverse(inst)
	goal := predicate.FromPairs(u, [2]int{0, 0})
	run := func(seed int64) int {
		e := inference.New(inst)
		n, err := honestRun(e, NewRandom(seed), goal)
		if err != nil {
			t.Fatal(err)
		}
		return n
	}
	if run(7) != run(7) {
		t.Error("same seed gave different interaction counts")
	}
}

// TestQuickLookaheadNeverWorseThanClasses: all strategies terminate within
// the class budget on random instances and return equivalent predicates.
func TestQuickStrategiesAlwaysTerminate(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		inst := randInstance(r)
		for _, mk := range []func() inference.Strategy{
			func() inference.Strategy { return BottomUp{} },
			func() inference.Strategy { return NewTopDown() },
			func() inference.Strategy { return NewRandom(seed) },
			func() inference.Strategy { return L1S(0) },
			func() inference.Strategy { return L2S(0) },
		} {
			e := inference.New(inst)
			goal := randPred(r, e.U)
			if _, err := honestRun(e, mk(), goal); err != nil {
				return false
			}
			gj := predicate.Join(inst, e.U, goal)
			rj := predicate.Join(inst, e.U, e.Result())
			if len(gj) != len(rj) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

func randInstance(r *rand.Rand) *relation.Instance {
	n := 1 + r.Intn(3)
	m := 1 + r.Intn(3)
	vals := 1 + r.Intn(4)
	ra := make([]string, n)
	for i := range ra {
		ra[i] = "A" + strconv.Itoa(i+1)
	}
	pa := make([]string, m)
	for i := range pa {
		pa[i] = "B" + strconv.Itoa(i+1)
	}
	R := relation.NewRelation(relation.MustSchema("R", ra...))
	P := relation.NewRelation(relation.MustSchema("P", pa...))
	for i := 0; i < 2+r.Intn(4); i++ {
		tr := make(relation.Tuple, n)
		for k := range tr {
			tr[k] = strconv.Itoa(r.Intn(vals))
		}
		R.Tuples = append(R.Tuples, tr)
	}
	for i := 0; i < 2+r.Intn(4); i++ {
		tp := make(relation.Tuple, m)
		for k := range tp {
			tp[k] = strconv.Itoa(r.Intn(vals))
		}
		P.Tuples = append(P.Tuples, tp)
	}
	return relation.MustInstance(R, P)
}

func randPred(r *rand.Rand, u *predicate.Universe) predicate.Pred {
	var p predicate.Pred
	for id := 0; id < u.Size(); id++ {
		if r.Intn(3) == 0 {
			p.Set.Add(id)
		}
	}
	return p
}
