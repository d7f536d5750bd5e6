package semijoin

import (
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/predicate"
)

// phi0 is the running example of Appendix A.1:
// ϕ0 = (x1 ∨ x2 ∨ ¬x3) ∧ (¬x1 ∨ x3 ∨ x4).
var phi0 = Formula{NumVars: 4, Clauses: []Clause{{1, 2, -3}, {-1, 3, 4}}}

func TestReducePhi0Shape(t *testing.T) {
	r, err := Reduce(phi0)
	if err != nil {
		t.Fatal(err)
	}
	// Rϕ0: 2 clause tuples + X + 4 variable tuples = 7 rows, 5 attributes.
	if r.Instance.R.Len() != 7 {
		t.Errorf("R rows = %d, want 7", r.Instance.R.Len())
	}
	if r.Instance.R.Schema.Arity() != 5 {
		t.Errorf("R arity = %d, want 5", r.Instance.R.Schema.Arity())
	}
	// Pϕ0: 6 literal tuples + Y + 4 variable tuples = 11 rows, 9 attributes.
	if r.Instance.P.Len() != 11 {
		t.Errorf("P rows = %d, want 11", r.Instance.P.Len())
	}
	if r.Instance.P.Schema.Arity() != 9 {
		t.Errorf("P arity = %d, want 9", r.Instance.P.Schema.Arity())
	}
	// Sample: positives are the clause tuples, negatives X and the xi.
	if len(r.Sample.Pos) != 2 || len(r.Sample.Neg) != 5 {
		t.Errorf("sample: +%d −%d, want +2 −5", len(r.Sample.Pos), len(r.Sample.Neg))
	}
	// Pair universe: (n+1)(2n+1) = 5·9 = 45 — does not fit one word for
	// larger n, which is why predicates use a dynamic bitset.
	if r.U.Size() != 45 {
		t.Errorf("universe = %d, want 45", r.U.Size())
	}
}

func TestReducePhi0Consistent(t *testing.T) {
	r, err := Reduce(phi0)
	if err != nil {
		t.Fatal(err)
	}
	theta, ok, err := NewSolver(NewTable(r.Instance)).Consistent(r.Sample)
	if err != nil {
		t.Fatal(err)
	}
	if !ok {
		t.Fatal("ϕ0 is satisfiable but reduction reported inconsistent")
	}
	// Decode a valuation and check it satisfies ϕ0.
	assign := r.DecodeValuation(theta)
	if !phi0.Satisfies(assign) {
		t.Errorf("decoded valuation %v does not satisfy ϕ0", assign[1:])
	}
}

func TestReduceUnsatisfiable(t *testing.T) {
	// (x1) ∧ (¬x1): trivially unsatisfiable.
	f := Formula{NumVars: 1, Clauses: []Clause{{1}, {-1}}}
	r, err := Reduce(f)
	if err != nil {
		t.Fatal(err)
	}
	_, ok, err := NewSolver(NewTable(r.Instance)).Consistent(r.Sample)
	if err != nil {
		t.Fatal(err)
	}
	if ok {
		t.Error("unsatisfiable formula reported consistent")
	}
}

func TestEncodeValuation(t *testing.T) {
	r, err := Reduce(phi0)
	if err != nil {
		t.Fatal(err)
	}
	// V = {x1=T, x2=F, x3=T, x4=F} satisfies ϕ0 (clause 1 by x1, clause 2
	// by x3).
	assign := []bool{false, true, false, true, false}
	if !phi0.Satisfies(assign) {
		t.Fatal("test valuation should satisfy ϕ0")
	}
	theta, err := r.EncodeValuation(assign)
	if err != nil {
		t.Fatal(err)
	}
	if theta.Size() != 5 { // (idR,idP) + one pair per variable
		t.Errorf("encoded predicate size = %d, want 5", theta.Size())
	}
	// The encoded predicate must be consistent with the sample.
	sel := make(map[int]bool)
	for _, ri := range predicate.Semijoin(r.Instance, r.U, theta) {
		sel[ri] = true
	}
	for _, i := range r.Sample.Pos {
		if !sel[i] {
			t.Errorf("encoded predicate misses positive %d", i)
		}
	}
	for _, j := range r.Sample.Neg {
		if sel[j] {
			t.Errorf("encoded predicate selects negative %d", j)
		}
	}
	// Round trip.
	back := r.DecodeValuation(theta)
	for v := 1; v <= 4; v++ {
		if back[v] != assign[v] {
			t.Errorf("decode(encode) flips x%d", v)
		}
	}

	if _, err := r.EncodeValuation([]bool{true}); err == nil {
		t.Error("short assignment accepted")
	}
}

func TestReduceErrors(t *testing.T) {
	if _, err := Reduce(Formula{NumVars: 0}); err == nil {
		t.Error("0-variable formula accepted")
	}
	if _, err := Reduce(Formula{NumVars: 1, Clauses: []Clause{{}}}); err == nil {
		t.Error("invalid formula accepted")
	}
}

// TestQuickReductionIffSAT is the heart of Theorem 6.1: on random 3CNF
// formulas, the reduced CONS⋉ instance is consistent iff DPLL finds the
// formula satisfiable; and in the satisfiable case both directions of the
// proof are exercised (encode a model → consistent predicate; decode the
// solver's predicate → model).
func TestQuickReductionIffSAT(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		fm := randFormula(r, 4, 6)
		red, err := Reduce(fm)
		if err != nil {
			return false
		}
		theta, consistent, err := NewSolver(NewTable(red.Instance)).Consistent(red.Sample)
		if err != nil {
			return false
		}
		assign, sat := fm.Solve()
		if consistent != sat {
			return false
		}
		if sat {
			// Encode direction.
			enc, err := red.EncodeValuation(assign)
			if err != nil {
				return false
			}
			sel := make(map[int]bool)
			for _, ri := range predicate.Semijoin(red.Instance, red.U, enc) {
				sel[ri] = true
			}
			for _, i := range red.Sample.Pos {
				if !sel[i] {
					return false
				}
			}
			for _, j := range red.Sample.Neg {
				if sel[j] {
					return false
				}
			}
			// Decode direction.
			if !fm.Satisfies(red.DecodeValuation(theta)) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 120}); err != nil {
		t.Error(err)
	}
}
