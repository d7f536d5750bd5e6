package crowd

import (
	"fmt"
	"math"
	"testing"

	"repro/internal/inference"
	"repro/internal/paperdata"
	"repro/internal/predicate"
	"repro/internal/relation"
	"repro/internal/sample"
	"repro/internal/strategy"
)

// honest returns the honest user's answer to product tuple (ri, pi) of
// inst: positive iff the goal selects it.
func honest(inst *relation.Instance, u *predicate.Universe, goal predicate.Pred) func(ri, pi int) sample.Label {
	return func(ri, pi int) sample.Label {
		return sample.Label(goal.Selects(u, inst.R.Tuples[ri], inst.P.Tuples[pi]))
	}
}

// crowdRun drives strat to the halt condition of Algorithm 1, each honest
// answer for goal passing through one majority vote of m. Every pick must
// be an informative class.
func crowdRun(e *inference.Engine, strat inference.Strategy, goal predicate.Pred, m *Majority) error {
	truth := honest(e.Inst, e.U, goal)
	for !e.Done() {
		ci := strat.Next(e)
		if ci < 0 || ci >= len(e.Classes()) || !e.Informative(ci) {
			return fmt.Errorf("%s picked %d, not an informative class", strat.Name(), ci)
		}
		c := e.Classes()[ci]
		if err := e.Label(ci, m.Vote(truth(c.RI, c.PI))); err != nil {
			return err
		}
	}
	return nil
}

func TestNewMajorityValidation(t *testing.T) {
	if _, err := NewMajority(3, -0.1, 1); err == nil {
		t.Error("negative error rate accepted")
	}
	if _, err := NewMajority(3, 1.0, 1); err == nil {
		t.Error("error rate 1 accepted")
	}
	m, err := NewMajority(0, 0.2, 1)
	if err != nil {
		t.Fatal(err)
	}
	if m.Workers != 1 {
		t.Errorf("workers = %d, want clamped 1", m.Workers)
	}
}

func TestPerfectWorkersNeverWrong(t *testing.T) {
	inst := paperdata.Example21()
	u := predicate.NewUniverse(inst)
	goal := predicate.FromPairs(u, [2]int{1, 2})
	truth := honest(inst, u, goal)
	m, err := NewMajority(1, 0, 7)
	if err != nil {
		t.Fatal(err)
	}
	for ri := 0; ri < 4; ri++ {
		for pi := 0; pi < 3; pi++ {
			if m.Vote(truth(ri, pi)) != truth(ri, pi) {
				t.Fatalf("perfect worker wrong at (%d,%d)", ri, pi)
			}
		}
	}
	if m.WrongAnswers != 0 {
		t.Error("WrongAnswers should be 0")
	}
	if m.Microtasks != 12 || m.Questions != 12 {
		t.Errorf("microtasks=%d questions=%d", m.Microtasks, m.Questions)
	}
}

func TestMajorityReducesErrors(t *testing.T) {
	inst := paperdata.Example21()
	u := predicate.NewUniverse(inst)
	goal := predicate.FromPairs(u, [2]int{1, 2})
	truth := honest(inst, u, goal)

	wrongRate := func(workers int) float64 {
		m, err := NewMajority(workers, 0.25, 99)
		if err != nil {
			t.Fatal(err)
		}
		const trials = 2000
		for i := 0; i < trials; i++ {
			m.Vote(truth(i%4, i%3))
		}
		return float64(m.WrongAnswers) / float64(m.Questions)
	}
	single := wrongRate(1)
	panel := wrongRate(7)
	if panel >= single {
		t.Errorf("7-worker majority error %v should beat single-worker %v", panel, single)
	}
	// Sanity against the closed form (±5 points sampling slack).
	if math.Abs(single-0.25) > 0.05 {
		t.Errorf("single-worker empirical error %v far from 0.25", single)
	}
	if want := MajorityErrorRate(7, 0.25); math.Abs(panel-want) > 0.05 {
		t.Errorf("panel empirical error %v far from closed form %v", panel, want)
	}
}

func TestMajorityErrorRateClosedForm(t *testing.T) {
	// k=1: error = p.
	if got := MajorityErrorRate(1, 0.3); math.Abs(got-0.3) > 1e-12 {
		t.Errorf("k=1: %v", got)
	}
	// k=3, p=0.1: p³ + 3p²(1−p) = 0.001 + 0.027·... = 0.028.
	want := 0.001 + 3*0.01*0.9
	if got := MajorityErrorRate(3, 0.1); math.Abs(got-want) > 1e-12 {
		t.Errorf("k=3: got %v want %v", got, want)
	}
	// Monotone in k for p < 1/2.
	if MajorityErrorRate(5, 0.2) >= MajorityErrorRate(3, 0.2) {
		t.Error("majority error should shrink with k")
	}
	// Even k behaves like k+1.
	if MajorityErrorRate(4, 0.2) != MajorityErrorRate(5, 0.2) {
		t.Error("even panel should equal next odd panel")
	}
	// k < 1 clamps.
	if MajorityErrorRate(0, 0.2) != MajorityErrorRate(1, 0.2) {
		t.Error("k=0 should clamp to 1")
	}
}

func TestTotalCost(t *testing.T) {
	m, err := NewMajority(3, 0, 1)
	if err != nil {
		t.Fatal(err)
	}
	m.CostPerTask = 0.05
	m.Vote(sample.Positive)
	m.Vote(sample.Negative)
	if got := m.TotalCost(); math.Abs(got-0.30) > 1e-12 {
		t.Errorf("TotalCost = %v, want 0.30", got)
	}
}

// TestInferenceThroughCrowd runs the full inference loop through a noisy
// majority oracle: with a reliable panel the goal is recovered; with a
// single unreliable worker the engine usually detects inconsistency or
// returns a wrong predicate — both acceptable, but the panel must win.
func TestInferenceThroughCrowd(t *testing.T) {
	successes := func(workers int) int {
		wins := 0
		for seed := int64(0); seed < 20; seed++ {
			inst := paperdata.Example21()
			e := inference.New(inst)
			goal := predicate.FromPairs(e.U, [2]int{0, 0}) // {(A1,B1)}
			m, err := NewMajority(workers, 0.25, seed)
			if err != nil {
				t.Fatal(err)
			}
			if err := crowdRun(e, strategy.NewTopDown(), goal, m); err != nil {
				continue // inconsistency detected: a failed crowd run
			}
			gj := predicate.Join(inst, e.U, goal)
			rj := predicate.Join(inst, e.U, e.Result())
			if len(gj) == len(rj) {
				wins++
			}
		}
		return wins
	}
	noisy := successes(1)
	panel := successes(9)
	if panel <= noisy {
		t.Errorf("9-worker panel (%d/20 successes) should beat single worker (%d/20)", panel, noisy)
	}
	if panel < 15 {
		t.Errorf("9-worker panel succeeded only %d/20 times", panel)
	}
}

// TestMajorityStats: the per-round breakdown accounts for every microtask —
// base rounds are consulted on every question, tie-break rounds only when an
// even panel splits, and costs follow CostPerTask.
func TestMajorityStats(t *testing.T) {
	inst := paperdata.Example21()
	truth := honest(inst, predicate.NewUniverse(inst), predicate.Empty())
	m, err := NewMajority(2, 0.4, 7)
	if err != nil {
		t.Fatal(err)
	}
	m.CostPerTask = 5
	const questions = 200
	for i := 0; i < questions; i++ {
		m.Vote(truth(i%4, i%3))
	}
	st := m.Stats()
	if len(st) < 3 {
		t.Fatalf("2-worker panel at 40%% error never tied in %d questions: %d rounds", questions, len(st))
	}
	total := 0
	for i, r := range st {
		if r.Round != i {
			t.Errorf("round %d labeled %d", i, r.Round)
		}
		if r.Correct > r.Asked {
			t.Errorf("round %d: correct %d > asked %d", i, r.Correct, r.Asked)
		}
		if r.Cost != float64(r.Asked)*m.CostPerTask {
			t.Errorf("round %d: cost %v, want %v", i, r.Cost, float64(r.Asked)*m.CostPerTask)
		}
		total += r.Asked
	}
	if st[0].Asked != questions || st[1].Asked != questions {
		t.Errorf("base rounds asked %d/%d times, want %d each", st[0].Asked, st[1].Asked, questions)
	}
	if st[2].Asked >= questions {
		t.Errorf("tie-break round asked %d times, want < %d", st[2].Asked, questions)
	}
	if total != m.Microtasks {
		t.Errorf("per-round asks sum to %d, Microtasks = %d", total, m.Microtasks)
	}
}
