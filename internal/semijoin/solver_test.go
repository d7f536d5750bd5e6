package semijoin

import (
	"fmt"
	"math/rand"
	"slices"
	"strconv"
	"sync"
	"testing"

	"repro/internal/predicate"
	"repro/internal/relation"
	"repro/internal/synth"
	"repro/internal/tpch"
)

// randSolverInstance builds a small random instance for differential
// solver tests.
func randSolverInstance(r *rand.Rand) *relation.Instance {
	n := 1 + r.Intn(3)
	m := 1 + r.Intn(3)
	vals := 1 + r.Intn(3)
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

// randSample labels a random subset of R's rows.
func randSample(r *rand.Rand, rows int) Sample {
	var s Sample
	for ri := 0; ri < rows; ri++ {
		switch r.Intn(3) {
		case 0:
			s.Pos = append(s.Pos, ri)
		case 1:
			s.Neg = append(s.Neg, ri)
		}
	}
	return s
}

// semijoinAgrees reports whether θ selects every positive example and no
// negative one, evaluating R ⋉θ P by its definition.
func semijoinAgrees(inst *relation.Instance, theta predicate.Pred, s Sample) bool {
	sel := make(map[int]bool)
	for _, ri := range predicate.Semijoin(inst, predicate.NewUniverse(inst), theta) {
		sel[ri] = true
	}
	for _, i := range s.Pos {
		if !sel[i] {
			return false
		}
	}
	for _, j := range s.Neg {
		if sel[j] {
			return false
		}
	}
	return true
}

// TestSolverMatchesConsistent: the solver decides CONS⋉ exactly like the
// definition (BruteForce) across random instances and samples, and every
// predicate it returns is consistent by direct evaluation. The solver is
// reused across samples so the witness table is exercised.
func TestSolverMatchesConsistent(t *testing.T) {
	r := rand.New(rand.NewSource(3))
	for trial := 0; trial < 120; trial++ {
		inst := randSolverInstance(r)
		sv := NewSolver(NewTable(inst))
		for probe := 0; probe < 6; probe++ {
			s := randSample(r, inst.R.Len())
			_, wantOK, wantErr := BruteForce(inst, s)
			gotTheta, gotOK, gotErr := sv.Consistent(s)
			if (wantErr != nil) != (gotErr != nil) {
				t.Fatalf("trial %d: err %v vs %v", trial, wantErr, gotErr)
			}
			if wantOK != gotOK {
				t.Fatalf("trial %d sample %+v: solver ok=%v, BruteForce ok=%v", trial, s, gotOK, wantOK)
			}
			if gotOK && !semijoinAgrees(inst, gotTheta, s) {
				t.Fatalf("trial %d sample %+v: solver θ=%v is not consistent", trial, s, gotTheta)
			}
		}
	}
}

// TestSolverMatchesInformative: solver informativeness decisions equal the
// definition's (both labels consistent under BruteForce) for every row
// under random consistent samples.
func TestSolverMatchesInformative(t *testing.T) {
	r := rand.New(rand.NewSource(7))
	for trial := 0; trial < 80; trial++ {
		inst := randSolverInstance(r)
		sv := NewSolver(NewTable(inst))
		for probe := 0; probe < 4; probe++ {
			s := randSample(r, inst.R.Len())
			theta, ok, err := sv.Consistent(s)
			if err != nil {
				t.Fatal(err)
			}
			if !ok {
				continue // only consistent bases arise in sessions
			}
			if !semijoinAgrees(inst, theta, s) {
				t.Fatalf("trial %d sample %+v: solver θ=%v is not consistent", trial, s, theta)
			}
			labeled := make(map[int]bool)
			for _, i := range s.Pos {
				labeled[i] = true
			}
			for _, i := range s.Neg {
				labeled[i] = true
			}
			for ri := 0; ri < inst.R.Len(); ri++ {
				if labeled[ri] {
					continue
				}
				_, okPos, _ := BruteForce(inst, Sample{Pos: append(slices.Clone(s.Pos), ri), Neg: s.Neg})
				_, okNeg, _ := BruteForce(inst, Sample{Pos: s.Pos, Neg: append(slices.Clone(s.Neg), ri)})
				got, err := sv.Informative(s, ri)
				if err != nil {
					t.Fatalf("trial %d row %d: %v", trial, ri, err)
				}
				if want := okPos && okNeg; want != got {
					t.Fatalf("trial %d sample %+v row %d: solver %v, BruteForce %v", trial, s, ri, got, want)
				}
			}
		}
	}
}

// TestSolverValidation: the scratch validation rejects exactly what
// Sample.Validate rejects, and leaves the scratch clean for the next call.
func TestSolverValidation(t *testing.T) {
	r := rand.New(rand.NewSource(5))
	inst := randSolverInstance(r)
	sv := NewSolver(NewTable(inst))
	bad := []Sample{
		{Pos: []int{0, 0}},
		{Pos: []int{0}, Neg: []int{0}},
		{Neg: []int{inst.R.Len()}},
		{Pos: []int{-1}},
	}
	for i, s := range bad {
		if _, _, err := sv.Consistent(s); err == nil {
			t.Errorf("bad sample %d accepted: %+v", i, s)
		}
	}
	// A valid call right after the rejects must still work (scratch reset).
	if _, ok, err := sv.Consistent(Sample{Pos: []int{0}}); err != nil {
		t.Fatalf("valid sample after rejects: %v (ok=%v)", err, ok)
	}
}

// TestSolverSharedTableConcurrent: solvers on several goroutines share one
// witness table from its first, racing fills onward. Every Consistent and
// Informative verdict equals a fresh solver's (over its own table) and
// BruteForce's, on random instances, half of them with deleted P rows
// (some with every P row deleted, so some witness sets are empty).
func TestSolverSharedTableConcurrent(t *testing.T) {
	const workers = 4
	r := rand.New(rand.NewSource(11))
	for trial := 0; trial < 60; trial++ {
		inst := randSolverInstance(r)
		if trial%2 == 1 {
			var dead []int
			for pi := 0; pi < inst.P.Len(); pi++ {
				if r.Intn(2) == 0 {
					dead = append(dead, pi)
				}
			}
			if len(dead) == 0 {
				dead = []int{r.Intn(inst.P.Len())}
			}
			next, err := inst.DeleteRows(nil, dead)
			if err != nil {
				t.Fatal(err)
			}
			inst = next
		}

		// The expected verdicts: a fresh solver, checked against the
		// definition.
		type probe struct {
			s       Sample
			ok      bool
			theta   predicate.Pred
			labeled []bool
			inf     []bool // per unlabeled row
		}
		fresh := NewSolver(NewTable(inst))
		probes := make([]probe, 6)
		for i := range probes {
			p := &probes[i]
			p.s = randSample(r, inst.R.Len())
			theta, ok, err := fresh.Consistent(p.s)
			if err != nil {
				t.Fatal(err)
			}
			if _, bfOK, _ := BruteForce(inst, p.s); bfOK != ok {
				t.Fatalf("trial %d sample %+v: solver ok=%v, BruteForce ok=%v", trial, p.s, ok, bfOK)
			}
			p.ok, p.theta = ok, theta
			p.labeled = make([]bool, inst.R.Len())
			p.inf = make([]bool, inst.R.Len())
			for _, ri := range append(append([]int(nil), p.s.Pos...), p.s.Neg...) {
				p.labeled[ri] = true
			}
			for ri := range p.labeled {
				if p.labeled[ri] {
					continue
				}
				inf, err := fresh.Informative(p.s, ri)
				if err != nil {
					t.Fatal(err)
				}
				_, bfPos, _ := BruteForce(inst, Sample{Pos: append(append([]int(nil), p.s.Pos...), ri), Neg: p.s.Neg})
				_, bfNeg, _ := BruteForce(inst, Sample{Pos: p.s.Pos, Neg: append(append([]int(nil), p.s.Neg...), ri)})
				if inf != (bfPos && bfNeg) {
					t.Fatalf("trial %d sample %+v row %d: solver informative=%v, BruteForce says %v", trial, p.s, ri, inf, bfPos && bfNeg)
				}
				p.inf[ri] = inf
			}
		}

		tbl := NewTable(inst)
		start := make(chan struct{})
		var wg sync.WaitGroup
		for w := 0; w < workers; w++ {
			wg.Add(1)
			go func(w int) {
				defer wg.Done()
				sv := NewSolver(tbl)
				<-start
				for i := range probes {
					p := &probes[(i+w)%len(probes)] // each worker fills rows in its own order
					theta, ok, err := sv.Consistent(p.s)
					if err != nil || ok != p.ok || ok && !theta.Equal(p.theta) {
						t.Errorf("trial %d worker %d sample %+v: (%v, %v, %v), want (%v, %v)", trial, w, p.s, theta, ok, err, p.theta, p.ok)
						return
					}
					for ri, want := range p.inf {
						if p.labeled[ri] {
							continue
						}
						inf, err := sv.Informative(p.s, ri)
						if err != nil || inf != want {
							t.Errorf("trial %d worker %d sample %+v row %d: informative (%v, %v), want %v", trial, w, p.s, ri, inf, err, want)
							return
						}
					}
				}
			}(w)
		}
		close(start)
		wg.Wait()
		if t.Failed() {
			return
		}
		for ri := 0; ri < inst.R.Len(); ri++ {
			if got, want := tbl.Witnesses(ri), fresh.tbl.Witnesses(ri); !slices.EqualFunc(got, want, predicate.Pred.Equal) {
				t.Fatalf("trial %d row %d: shared witnesses %v, private %v", trial, ri, got, want)
			}
		}
	}
}

// defWitnesses is row ri's witness set by definition: T(R[ri], t') for
// every live t' ∈ P in P's order, deduplicated, keeping the ⊆-maximal
// values at their first occurrence.
func defWitnesses(inst *relation.Instance, u *predicate.Universe, ri int) []predicate.Pred {
	seen := make(map[string]bool)
	var distinct []predicate.Pred
	for pi, tP := range inst.P.Tuples {
		if !inst.PAlive(pi) {
			continue
		}
		w := predicate.T(u, inst.R.Tuples[ri], tP)
		if !seen[w.Key()] {
			seen[w.Key()] = true
			distinct = append(distinct, w)
		}
	}
	var maximal []predicate.Pred
	for a, w := range distinct {
		dominated := false
		for b, w2 := range distinct {
			if a != b && w.Set.ProperSubsetOf(w2.Set) {
				dominated = true
				break
			}
		}
		if !dominated {
			maximal = append(maximal, w)
		}
	}
	return maximal
}

// checkWitnesses compares Table.Witnesses with the definition, element
// for element and in order, on the given rows of one shared table.
func checkWitnesses(t *testing.T, name string, inst *relation.Instance, rows []int) {
	t.Helper()
	tbl := NewTable(inst)
	for _, ri := range rows {
		got, want := tbl.Witnesses(ri), defWitnesses(inst, tbl.Universe(), ri)
		if !slices.EqualFunc(got, want, predicate.Pred.Equal) {
			t.Fatalf("%s row %d: witnesses %v, definition %v", name, ri, got, want)
		}
	}
}

// TestTableWitnessesMatchDefinition: the witness sets filled from the
// value postings equal the definition's on random universes of one to
// three mask words (half of them with deleted P rows, some with none
// left) and on the five TPC-H joins.
func TestTableWitnessesMatchDefinition(t *testing.T) {
	r := rand.New(rand.NewSource(31))
	shapes := [][2]int{{1, 1}, {2, 3}, {3, 3}, {8, 8}, {9, 8}, {11, 11}, {13, 11}, {12, 16}}
	for _, sh := range shapes {
		for trial := 0; trial < 12; trial++ {
			cfg := synth.Config{AttrsR: sh[0], AttrsP: sh[1], Rows: 2 + r.Intn(30), Values: 2 + r.Intn(4)}
			inst := synth.MustGenerate(cfg, r.Int63())
			if trial%2 == 1 {
				var dead []int
				for pi := 0; pi < inst.P.Len(); pi++ {
					if trial%6 == 5 || r.Intn(3) == 0 {
						dead = append(dead, pi)
					}
				}
				next, err := inst.DeleteRows(nil, dead)
				if err != nil {
					t.Fatal(err)
				}
				inst = next
			}
			// Fill the rows back to front, so a pooled scan is reused
			// across rows in a different order than P's.
			rows := make([]int, inst.R.Len())
			for i := range rows {
				rows[i] = len(rows) - 1 - i
			}
			checkWitnesses(t, fmt.Sprintf("%s trial %d", cfg, trial), inst, rows)
		}
	}
	data := tpch.MustGenerate(1, 42)
	for _, j := range tpch.AllJoins() {
		inst, _, err := data.Instance(j)
		if err != nil {
			t.Fatal(err)
		}
		rows := make([]int, inst.R.Len())
		for i := range rows {
			rows[i] = i
		}
		checkWitnesses(t, j.String(), inst, rows)
	}
}
