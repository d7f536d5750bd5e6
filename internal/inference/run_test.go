package inference

import (
	"fmt"
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/paperdata"
	"repro/internal/predicate"
	"repro/internal/sample"
)

// firstInformative is a trivial strategy for engine-level tests (it is in
// fact BU, since classes are sorted by predicate size).
type firstInformative struct{}

func (firstInformative) Name() string { return "first" }
func (firstInformative) Next(e *Engine) int {
	for ci := range e.Classes() {
		if e.Informative(ci) {
			return ci
		}
	}
	return -1
}

// honestLabel is the honest user's answer for class ci: positive iff the
// goal selects the class's representative tuple.
func honestLabel(e *Engine, ci int, goal predicate.Pred) sample.Label {
	c := e.Classes()[ci]
	return sample.Label(goal.Selects(e.U, e.Inst.R.Tuples[c.RI], e.Inst.P.Tuples[c.PI]))
}

// honestRun drives strat against an honest user for goal until no
// informative class remains (Algorithm 1) and returns the number of
// questions. Every pick must be an informative class, so a run asks at
// most one question per class.
func honestRun(e *Engine, strat Strategy, goal predicate.Pred) (int, error) {
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

func TestRunInfersGoalEquivalent(t *testing.T) {
	inst := paperdata.Example21()
	e := New(inst)
	goal := predicate.FromPairs(e.U, [2]int{1, 2}) // θG = {(A2,B3)}
	n, err := honestRun(e, firstInformative{}, goal)
	if err != nil {
		t.Fatal(err)
	}
	if n == 0 || n > 12 {
		t.Errorf("interactions = %d", n)
	}
	// The result must be instance-equivalent to the goal.
	gj := predicate.Join(inst, e.U, goal)
	rj := predicate.Join(inst, e.U, e.Result())
	if len(gj) != len(rj) {
		t.Fatalf("result %v not instance-equivalent to goal %v", e.Result(), goal)
	}
	for i := range gj {
		if gj[i] != rj[i] {
			t.Fatalf("join mismatch at %d", i)
		}
	}
}

// TestRunDetectsDishonestUser: a user who answers the first question
// honestly and flips every later answer drives the sample inconsistent,
// and the engine reports it (lines 6–7 of Algorithm 1).
func TestRunDetectsDishonestUser(t *testing.T) {
	inst := paperdata.Example21()
	e := New(inst)
	goal := predicate.FromPairs(e.U, [2]int{1, 2})
	for n := 0; !e.Done(); n++ {
		ci := firstInformative{}.Next(e)
		l := honestLabel(e, ci, goal)
		if n > 0 {
			l = !l
		}
		if err := e.Label(ci, l); err != nil {
			if err != ErrInconsistent {
				t.Errorf("err = %v, want ErrInconsistent", err)
			}
			return
		}
	}
	t.Skip("adversary flip did not force inconsistency on this trace")
}

// TestQuickRunAlwaysInstanceEquivalent: for random instances and random
// goal predicates, the inference loop terminates within |classes| labels
// and returns a predicate with exactly the goal's join result.
func TestQuickRunAlwaysInstanceEquivalent(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		inst := smallRandomInstance(r)
		e := New(inst)
		goal := randomPred(r, e.U)
		if _, err := honestRun(e, firstInformative{}, goal); err != nil {
			return false
		}
		res := e.Result()
		gj := predicate.Join(inst, e.U, goal)
		rj := predicate.Join(inst, e.U, res)
		if len(gj) != len(rj) {
			return false
		}
		for i := range gj {
			if gj[i] != rj[i] {
				return false
			}
		}
		// The returned predicate must moreover be the most specific
		// consistent one: every positive example's T contains it.
		return e.Sample().ConsistentWith(res)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 150}); err != nil {
		t.Error(err)
	}
}
