package belief

import (
	"fmt"
	"testing"

	"repro/internal/inference"
	"repro/internal/paperdata"
	"repro/internal/predicate"
	"repro/internal/sample"
	"repro/internal/strategy"
	"repro/internal/synth"
)

// honestRun drives strat against an honest user for goal until no
// informative class remains (Algorithm 1): every pick must be an
// informative class, and its answer is whether the goal selects the
// class's representative tuple.
func honestRun(e *inference.Engine, strat inference.Strategy, goal predicate.Pred) error {
	for !e.Done() {
		ci := strat.Next(e)
		if ci < 0 || ci >= len(e.Classes()) || !e.Informative(ci) {
			return fmt.Errorf("%s picked %d, not an informative class", strat.Name(), ci)
		}
		c := e.Classes()[ci]
		l := sample.Label(goal.Selects(e.U, e.Inst.R.Tuples[c.RI], e.Inst.P.Tuples[c.PI]))
		if err := e.Label(ci, l); err != nil {
			return err
		}
	}
	return nil
}

// attributionFixture builds the class thetas and universe of the paper's
// running example.
func attributionFixture(t *testing.T) (*predicate.Universe, []predicate.Pred) {
	t.Helper()
	eng := inference.New(paperdata.FlightHotel())
	return eng.U, classThetas(eng)
}

func classThetas(e *inference.Engine) []predicate.Pred {
	thetas := make([]predicate.Pred, len(e.Classes()))
	for i, c := range e.Classes() {
		thetas[i] = c.Theta
	}
	return thetas
}

func TestAttributionExact(t *testing.T) {
	u, thetas := attributionFixture(t)
	answers := []LabeledPred{
		{Theta: thetas[0], Positive: true},
		{Theta: thetas[1], Positive: false},
		{Theta: thetas[2], Positive: false},
	}
	a := Attribution(u, thetas, answers, 1)
	b := Attribution(u, thetas, answers, 999) // exact path ignores the seed
	if len(a) != len(answers) {
		t.Fatalf("len = %d, want %d", len(a), len(answers))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("exact attribution not deterministic: %v vs %v", a, b)
		}
		if a[i] < 0 || a[i] > 1 {
			t.Fatalf("score %d = %v outside [0, 1]", i, a[i])
		}
	}
	// A lone answer is pivotal against the empty coalition, so at least one
	// score must be nonzero.
	nonzero := false
	for _, s := range a {
		nonzero = nonzero || s > 0
	}
	if !nonzero {
		t.Fatalf("all scores zero: %v", a)
	}
	if got := Attribution(u, thetas, nil, 1); len(got) != 0 {
		t.Fatalf("empty answers gave %v", got)
	}
}

// A duplicated answer is never drop-one critical — its twin keeps the
// outcome — while Banzhaf still credits each copy on coalitions that
// exclude the other.
func TestDuplicateAnswerNotCritical(t *testing.T) {
	u, thetas := attributionFixture(t)
	answers := []LabeledPred{
		{Theta: thetas[0], Positive: true},
		{Theta: thetas[0], Positive: true},
		{Theta: thetas[1], Positive: false},
	}
	crit := DropOneCritical(u, thetas, answers)
	if crit[0] || crit[1] {
		t.Fatalf("duplicated answers flagged critical: %v", crit)
	}
	scores := Attribution(u, thetas, answers, 1)
	if scores[0] == 0 || scores[0] != scores[1] {
		t.Fatalf("duplicated answers should share a nonzero score, got %v", scores)
	}
}

// Past exactAttributionMax answers the Monte-Carlo fallback kicks in; it
// must still be deterministic for a fixed seed.
func TestAttributionSampledDeterministic(t *testing.T) {
	inst := synth.MustGenerate(synth.Config{AttrsR: 9, AttrsP: 8, Rows: 5, Values: 3}, 1)
	eng := inference.New(inst)
	u, thetas := eng.U, classThetas(eng)
	n := exactAttributionMax + 3
	if len(thetas) < n {
		t.Fatalf("fixture has only %d classes, need %d", len(thetas), n)
	}
	answers := make([]LabeledPred, n)
	answers[0] = LabeledPred{Theta: thetas[0], Positive: true}
	for i := 1; i < n; i++ {
		answers[i] = LabeledPred{Theta: thetas[i], Positive: false}
	}
	a := Attribution(u, thetas, answers, 42)
	b := Attribution(u, thetas, answers, 42)
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("sampled attribution not deterministic at %d: %v vs %v", i, a[i], b[i])
		}
		if a[i] < 0 || a[i] > 1 {
			t.Fatalf("score %d = %v outside [0, 1]", i, a[i])
		}
	}
}

func TestDropOneCriticalEmpty(t *testing.T) {
	u, thetas := attributionFixture(t)
	if got := DropOneCritical(u, thetas, nil); len(got) != 0 {
		t.Fatalf("empty answers gave %v", got)
	}
}

// TestExplainLastAnswerCriticalPast64Answers: the last answer of a halted
// hard session was informative when it was asked, so dropping it always
// changes the outcome — also past 64 answers, where coalitions indexed by
// an int bitmask never held it.
func TestExplainLastAnswerCriticalPast64Answers(t *testing.T) {
	inst := synth.MustGenerate(synth.Config{AttrsR: 6, AttrsP: 6, Rows: 60, Values: 4}, 1)
	e := inference.New(inst)
	goal := predicate.FromPairs(e.U, [2]int{0, 0}, [2]int{1, 1})
	if err := honestRun(e, strategy.BottomUp{}, goal); err != nil {
		t.Fatal(err)
	}
	exs := e.Sample().Examples()
	if len(exs) <= 64 {
		t.Fatalf("BU session took %d answers; want more than 64", len(exs))
	}
	answers := make([]LabeledPred, len(exs))
	for i, ex := range exs {
		answers[i] = LabeledPred{Theta: ex.Theta, Positive: bool(ex.Label)}
	}
	if crit := DropOneCritical(e.U, classThetas(e), answers); !crit[len(crit)-1] {
		t.Errorf("last of %d answers not critical", len(exs))
	}
}

// TestAttributionSampledPast64Answers: a lone positive answer among 69
// duplicate negatives changes T(S+) in every coalition, so it scores 1
// wherever it sits in the transcript.
func TestAttributionSampledPast64Answers(t *testing.T) {
	u, thetas := attributionFixture(t)
	neg := LabeledPred{Theta: thetas[0], Positive: false}
	pos := LabeledPred{Theta: thetas[len(thetas)-1], Positive: true}
	if pos.Theta.Equal(predicate.Omega(u)) {
		t.Fatal("fixture's largest class is Ω; a positive on it changes nothing")
	}
	for _, at := range []int{0, 69} {
		answers := make([]LabeledPred, 70)
		for i := range answers {
			answers[i] = neg
		}
		answers[at] = pos
		if got := Attribution(u, thetas, answers, 1)[at]; got != 1 {
			t.Errorf("positive at index %d scores %v; want 1", at, got)
		}
	}
}
