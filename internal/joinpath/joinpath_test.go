package joinpath

import (
	"context"
	"math/rand"
	"strconv"
	"strings"
	"testing"
	"testing/quick"

	joininference "repro"
	"repro/internal/predicate"
	"repro/internal/relation"
	"repro/internal/tpch"
)

// infer runs one honest session per step of the path and returns the
// inferred path predicate with the questions each step asked.
func infer(p *Path, id joininference.StrategyID, goal Goal) (Goal, []int, error) {
	var preds Goal
	var perStep []int
	for i := 0; i < p.Steps(); i++ {
		inst, _ := p.Step(i)
		s := joininference.NewSession(inst, joininference.WithStrategy(id))
		res, err := joininference.Run(context.Background(), s, joininference.HonestOracle(goal[i]))
		if err != nil {
			return nil, nil, err
		}
		preds = append(preds, res.Inferred)
		perStep = append(perStep, res.Questions)
	}
	return preds, perStep, nil
}

// tpchPath builds the Customer → Orders → Lineitem chain.
func tpchPath(t testing.TB) (*Path, Goal) {
	t.Helper()
	data := tpch.MustGenerate(1, 42)
	p, err := NewPath(data.Customer, data.Orders, data.Lineitem)
	if err != nil {
		t.Fatal(err)
	}
	_, u0 := p.Step(0)
	g0, err := predicate.FromNames(u0, [2]string{"Custkey", "OCustkey"})
	if err != nil {
		t.Fatal(err)
	}
	_, u1 := p.Step(1)
	g1, err := predicate.FromNames(u1, [2]string{"Orderkey", "LOrderkey"})
	if err != nil {
		t.Fatal(err)
	}
	return p, Goal{g0, g1}
}

func TestNewPathValidation(t *testing.T) {
	data := tpch.MustGenerate(1, 1)
	if _, err := NewPath(data.Customer); err == nil {
		t.Error("single relation accepted")
	}
	if _, err := NewPath(data.Customer, data.Customer); err == nil {
		t.Error("repeated relation (overlapping attrs) accepted")
	}
	p, err := NewPath(data.Customer, data.Orders, data.Lineitem)
	if err != nil {
		t.Fatal(err)
	}
	if p.Steps() != 2 {
		t.Errorf("Steps = %d", p.Steps())
	}
}

func TestInferTPCHPath(t *testing.T) {
	p, goal := tpchPath(t)
	preds, perStep, err := infer(p, joininference.StrategyTD, goal)
	if err != nil {
		t.Fatal(err)
	}
	if len(preds) != 2 || len(perStep) != 2 || perStep[0] < 1 || perStep[1] < 1 {
		t.Fatalf("result shape: %v, %v questions", preds, perStep)
	}
	// Instance equivalence per step ⇒ identical path join.
	want, err := Eval(p, goal)
	if err != nil {
		t.Fatal(err)
	}
	got, err := Eval(p, preds)
	if err != nil {
		t.Fatal(err)
	}
	if len(want) != len(got) {
		t.Fatalf("path join sizes differ: %d vs %d", len(got), len(want))
	}
	for i := range want {
		for j := range want[i] {
			if want[i][j] != got[i][j] {
				t.Fatalf("path join rows differ at %d", i)
			}
		}
	}
	if len(want) == 0 {
		t.Fatal("goal path join should be non-empty (FK chain)")
	}
}

func TestEvalValidation(t *testing.T) {
	p, goal := tpchPath(t)
	if _, err := Eval(p, goal[:1]); err == nil {
		t.Error("short goal accepted")
	}
}

func TestFormat(t *testing.T) {
	p, goal := tpchPath(t)
	s := Format(p, goal)
	if !strings.Contains(s, "Custkey") || !strings.Contains(s, "⋈") {
		t.Errorf("Format = %q", s)
	}
}

// TestQuickPathInference: random 3-relation chains, random pairwise goals;
// inference always reproduces the goal's path join.
func TestQuickPathInference(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		rels := make([]*relation.Relation, 3)
		for k := range rels {
			arity := 1 + r.Intn(2)
			attrs := make([]string, arity)
			for i := range attrs {
				attrs[i] = "R" + strconv.Itoa(k) + "A" + strconv.Itoa(i)
			}
			rel := relation.NewRelation(relation.MustSchema("Rel"+strconv.Itoa(k), attrs...))
			for n := 0; n < 2+r.Intn(3); n++ {
				tp := make(relation.Tuple, arity)
				for i := range tp {
					tp[i] = strconv.Itoa(r.Intn(3))
				}
				rel.Tuples = append(rel.Tuples, tp)
			}
			rels[k] = rel
		}
		p, err := NewPath(rels...)
		if err != nil {
			return false
		}
		goal := make(Goal, p.Steps())
		for s := range goal {
			_, u := p.Step(s)
			var pred predicate.Pred
			for id := 0; id < u.Size(); id++ {
				if r.Intn(3) == 0 {
					pred.Set.Add(id)
				}
			}
			goal[s] = pred
		}
		preds, _, err := infer(p, joininference.StrategyBU, goal)
		if err != nil {
			return false
		}
		want, err := Eval(p, goal)
		if err != nil {
			return false
		}
		got, err := Eval(p, preds)
		if err != nil {
			return false
		}
		if len(want) != len(got) {
			return false
		}
		for i := range want {
			for j := range want[i] {
				if want[i][j] != got[i][j] {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}
