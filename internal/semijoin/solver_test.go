package semijoin

import (
	"math/rand"
	"slices"
	"strconv"
	"sync"
	"testing"

	"repro/internal/predicate"
	"repro/internal/relation"
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

// TestSolverMatchesConsistent: the scratch-based solver decides CONS⋉
// exactly like the package-level search — same verdict and same witness
// predicate — across random instances and samples, with the solver reused
// across samples so the witness cache is exercised.
func TestSolverMatchesConsistent(t *testing.T) {
	r := rand.New(rand.NewSource(3))
	for trial := 0; trial < 120; trial++ {
		inst := randSolverInstance(r)
		sv := NewSolver(NewTable(inst))
		for probe := 0; probe < 6; probe++ {
			s := randSample(r, inst.R.Len())
			wantTheta, wantOK, wantErr := Consistent(inst, s)
			gotTheta, gotOK, gotErr := sv.Consistent(s)
			if (wantErr != nil) != (gotErr != nil) {
				t.Fatalf("trial %d: err %v vs %v", trial, wantErr, gotErr)
			}
			if wantOK != gotOK {
				t.Fatalf("trial %d sample %+v: solver ok=%v, package ok=%v", trial, s, gotOK, wantOK)
			}
			if wantOK && !wantTheta.Equal(gotTheta) {
				t.Fatalf("trial %d sample %+v: solver θ=%v, package θ=%v", trial, s, gotTheta, wantTheta)
			}
		}
	}
}

// TestSolverMatchesInformative: solver informativeness decisions equal the
// package-level ones for every row under random samples.
func TestSolverMatchesInformative(t *testing.T) {
	r := rand.New(rand.NewSource(7))
	for trial := 0; trial < 80; trial++ {
		inst := randSolverInstance(r)
		sv := NewSolver(NewTable(inst))
		for probe := 0; probe < 4; probe++ {
			s := randSample(r, inst.R.Len())
			if _, ok, err := Consistent(inst, s); err != nil || !ok {
				continue // only consistent bases arise in sessions
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
				want, wantErr := Informative(inst, s, ri)
				got, gotErr := sv.Informative(s, ri)
				if (wantErr != nil) != (gotErr != nil) {
					t.Fatalf("trial %d row %d: err %v vs %v", trial, ri, wantErr, gotErr)
				}
				if want != got {
					t.Fatalf("trial %d sample %+v row %d: solver %v, package %v", trial, s, ri, got, want)
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
