package inference

import (
	"fmt"
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/paperdata"
	"repro/internal/predicate"
	"repro/internal/relation"
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

// flipTrial returns trial's instance and goal: Example 2.1 with θG =
// {(A2,B3)} first, then small random ones.
func flipTrial(r *rand.Rand, trial int) (*relation.Instance, predicate.Pred) {
	if trial == 0 {
		inst := paperdata.Example21()
		return inst, predicate.FromPairs(predicate.NewUniverse(inst), [2]int{1, 2})
	}
	inst := smallRandomInstance(r)
	return inst, randomPred(r, predicate.NewUniverse(inst))
}

// TestRunFlippedAnswersStayConsistent: by Theorem 3.5 both labels of an
// informative class admit a consistent predicate, so a user who flips
// answers to informative questions never contradicts the sample. Under
// three flip patterns (every answer, all but the first, every other one)
// the run ends without error, and T(S+) selects exactly the classes the
// user labelled positive.
func TestRunFlippedAnswersStayConsistent(t *testing.T) {
	r := rand.New(rand.NewSource(9))
	for trial := 0; trial < 60; trial++ {
		inst, goal := flipTrial(r, trial)
		e := New(inst)
		for n := 0; !e.Done(); n++ {
			ci := firstInformative{}.Next(e)
			l := honestLabel(e, ci, goal)
			switch trial % 3 {
			case 0:
				l = !l
			case 1:
				l = l != (n > 0)
			case 2:
				l = l != (n%2 == 1)
			}
			if err := e.Label(ci, l); err != nil {
				t.Fatalf("trial %d question %d: flipped label of an informative class: %v", trial, n, err)
			}
		}
		res := e.Result()
		for ci, c := range e.Classes() {
			pos, labeled := e.LabelOf(ci)
			if labeled && res.Selects(e.U, inst.R.Tuples[c.RI], inst.P.Tuples[c.PI]) != pos {
				t.Fatalf("trial %d: result %v disagrees with the label of class %d", trial, res, ci)
			}
		}
	}
}

// TestLabelAgainstCertaintyIsInconsistent: labelling a certain class
// against its certainty makes the sample inconsistent, and Label reports
// it (lines 6–7 of Algorithm 1). Every unlabelled certain class at every
// step of honest runs is checked on a replayed engine.
func TestLabelAgainstCertaintyIsInconsistent(t *testing.T) {
	type answer struct {
		ci int
		l  sample.Label
	}
	r := rand.New(rand.NewSource(5))
	checked := 0
	for trial := 0; trial < 40; trial++ {
		inst, goal := flipTrial(r, trial)
		e := New(inst)
		var answers []answer
		for {
			for ci := range e.Classes() {
				if _, labeled := e.LabelOf(ci); labeled {
					continue
				}
				var against sample.Label
				switch {
				case e.CertainPositive(ci):
					against = sample.Negative
				case e.CertainNegative(ci):
					against = sample.Positive
				default:
					continue
				}
				replay := New(inst)
				for _, a := range answers {
					if err := replay.Label(a.ci, a.l); err != nil {
						t.Fatal(err)
					}
				}
				if err := replay.Label(ci, against); err != ErrInconsistent {
					t.Fatalf("trial %d: labelling certain class %d %v after %v: err = %v, want ErrInconsistent",
						trial, ci, against, answers, err)
				}
				checked++
			}
			if e.Done() {
				break
			}
			ci := firstInformative{}.Next(e)
			l := honestLabel(e, ci, goal)
			if err := e.Label(ci, l); err != nil {
				t.Fatal(err)
			}
			answers = append(answers, answer{ci, l})
		}
	}
	if checked == 0 {
		t.Fatal("no certain class arose to label against its certainty")
	}
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
