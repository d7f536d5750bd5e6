package joininference

import (
	"context"
	"math/rand"
	"slices"
	"testing"
	"testing/quick"

	"repro/internal/paperdata"
	"repro/internal/predicate"
	"repro/internal/semijoin"
	"repro/internal/synth"
)

func TestSemijoinConsistentPublic(t *testing.T) {
	inst := paperdata.Example21()
	theta, ok, err := SemijoinConsistent(inst, SemijoinSample{Keep: []int{0, 1}, Drop: []int{2}})
	if err != nil {
		t.Fatal(err)
	}
	if !ok {
		t.Fatal("Section 6 sample should be consistent")
	}
	sel := map[int]bool{}
	for _, ri := range SemijoinEval(inst, theta) {
		sel[ri] = true
	}
	if !sel[0] || !sel[1] || sel[2] {
		t.Errorf("predicate selects %v", sel)
	}
	if _, _, err := SemijoinConsistent(inst, SemijoinSample{Keep: []int{99}}); err == nil {
		t.Error("invalid sample accepted")
	}
}

func TestInferSemijoinPublic(t *testing.T) {
	inst := paperdata.Example21()
	u := NewSession(inst).Universe()
	goal, err := PredFromNames(u, [2]string{"A1", "B2"})
	if err != nil {
		t.Fatal(err)
	}
	res, err := Run(context.Background(), NewSemijoinSession(inst), HonestOracle(goal))
	if err != nil {
		t.Fatal(err)
	}
	if res.Questions < 1 || res.Questions > inst.R.Len() {
		t.Errorf("asked = %d", res.Questions)
	}
	theta := res.Inferred
	want := SemijoinEval(inst, goal)
	got := SemijoinEval(inst, theta)
	if len(want) != len(got) {
		t.Fatalf("semijoin differs: %v vs %v", got, want)
	}
	for i := range want {
		if want[i] != got[i] {
			t.Fatalf("semijoin differs: %v vs %v", got, want)
		}
	}
}

func TestInferSemijoinCustomOracle(t *testing.T) {
	inst := paperdata.Example21()
	// User keeps rows whose A2 value is "2" (t2 and t3).
	keep := map[int]bool{1: true, 2: true}
	res, err := Run(context.Background(), NewSemijoinSession(inst), FuncOracle(func(q Question) Label {
		return Label(keep[q.RIndex])
	}))
	if err != nil {
		// The user's mental filter may be inexpressible as a semijoin on
		// this instance — the error path is legitimate API behaviour.
		t.Logf("inconsistent user filter detected after %d questions: %v", res.Questions, err)
		return
	}
	sel := map[int]bool{}
	for _, ri := range SemijoinEval(inst, res.Inferred) {
		sel[ri] = true
	}
	for ri, want := range keep {
		if want && !sel[ri] {
			t.Errorf("row %d should be kept", ri)
		}
	}
}

// TestQuickSemijoinSessionMatchesGoal: over random instances (half of them
// with a deleted R row) and random goals, an honest semijoin session runs
// to the halt condition, infers a predicate whose semijoin equals the
// goal's, and asks at most one question per live R row. The halt is then
// checked against the definition rather than another code path: every
// unlabeled live row is uninformative by brute-force enumeration — exactly
// one of its two labels extends the sample consistently.
func TestQuickSemijoinSessionMatchesGoal(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		inst := synth.MustGenerate(synth.Config{
			AttrsR: 1 + r.Intn(2), AttrsP: 1 + r.Intn(3), Rows: 2 + r.Intn(4), Values: 1 + r.Intn(3),
		}, seed)
		if r.Intn(2) == 0 {
			upd, err := ApplyDelta(inst, PrecomputeClasses(inst), Delta{DeleteR: []int{r.Intn(inst.R.Len())}})
			if err != nil {
				t.Log(err)
				return false
			}
			inst = upd.To
		}
		u := predicate.NewUniverse(inst)
		var goal Pred
		for id := 0; id < u.Size(); id++ {
			if r.Intn(3) == 0 {
				goal.Set.Add(id)
			}
		}
		s := NewSemijoinSession(inst)
		res, err := Run(context.Background(), s, HonestOracle(goal))
		if err != nil || !res.Determined {
			t.Logf("seed %d: determined %v, err %v", seed, res.Determined, err)
			return false
		}
		if !slices.Equal(SemijoinEval(inst, res.Inferred), SemijoinEval(inst, goal)) || res.Questions > inst.LiveR() {
			t.Logf("seed %d: inferred %v after %d questions (%d live rows)", seed, res.Inferred.Format(u), res.Questions, inst.LiveR())
			return false
		}
		var sample semijoin.Sample
		labeled := map[int]bool{}
		keep := map[int]bool{}
		for _, ri := range SemijoinEval(inst, goal) {
			keep[ri] = true
		}
		for _, e := range s.Transcript() {
			if !inst.RAlive(e.RIndex) || e.Positive != keep[e.RIndex] {
				t.Logf("seed %d: answer %+v about a deleted row or dishonest", seed, e)
				return false
			}
			labeled[e.RIndex] = true
			if e.Positive {
				sample.Pos = append(sample.Pos, e.RIndex)
			} else {
				sample.Neg = append(sample.Neg, e.RIndex)
			}
		}
		for ri := 0; ri < inst.R.Len(); ri++ {
			if labeled[ri] || !inst.RAlive(ri) {
				continue
			}
			_, okPos, err := semijoin.BruteForce(inst, semijoin.Sample{Pos: append(slices.Clone(sample.Pos), ri), Neg: sample.Neg})
			if err != nil {
				return false
			}
			_, okNeg, err := semijoin.BruteForce(inst, semijoin.Sample{Pos: sample.Pos, Neg: append(slices.Clone(sample.Neg), ri)})
			if err != nil || okPos == okNeg {
				t.Logf("seed %d: row %d left informative at the halt (pos %v, neg %v)", seed, ri, okPos, okNeg)
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}
