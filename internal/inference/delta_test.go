package inference

import (
	"math/rand"
	"strconv"
	"testing"

	"repro/internal/predicate"
	"repro/internal/product"
	"repro/internal/relation"
	"repro/internal/sample"
)

func randInstance(rng *rand.Rand, nR, nP, vals int) *relation.Instance {
	r := relation.NewRelation(relation.MustSchema("R", "A", "B"))
	for i := 0; i < nR; i++ {
		r.MustAddTuple(strconv.Itoa(rng.Intn(vals)), strconv.Itoa(rng.Intn(vals)))
	}
	p := relation.NewRelation(relation.MustSchema("P", "C", "D"))
	for i := 0; i < nP; i++ {
		p.MustAddTuple(strconv.Itoa(rng.Intn(vals)), strconv.Itoa(rng.Intn(vals)))
	}
	return relation.MustInstance(r, p)
}

func randTuples(rng *rand.Rand, n, arity, vals int) []relation.Tuple {
	out := make([]relation.Tuple, n)
	for i := range out {
		t := make(relation.Tuple, arity)
		for k := range t {
			t[k] = strconv.Itoa(rng.Intn(vals))
		}
		out[i] = t
	}
	return out
}

// rebuildReplay builds a fresh engine on inst (with its classes) and
// replays the surviving examples of the maintained engine, labeling by
// class identity (theta).
func rebuildReplay(t *testing.T, inst *relation.Instance, cs []*product.Class, examples []sample.Example) *Engine {
	t.Helper()
	fresh := New(inst, WithClasses(cs))
	byKey := make(map[string]int, len(cs))
	for ci, c := range cs {
		byKey[c.Theta.Key()] = ci
	}
	for _, ex := range examples {
		ci, ok := byKey[ex.Theta.Key()]
		if !ok {
			t.Fatalf("surviving example's class %v missing after delta", ex.Theta)
		}
		if err := fresh.Label(ci, ex.Label); err != nil {
			t.Fatalf("replaying example on rebuilt engine: %v", err)
		}
	}
	return fresh
}

func enginesEqual(t *testing.T, tag string, got, want *Engine) {
	t.Helper()
	if len(got.Classes()) != len(want.Classes()) {
		t.Fatalf("%s: %d classes vs %d", tag, len(got.Classes()), len(want.Classes()))
	}
	for ci := range got.Classes() {
		if got.Informative(ci) != want.Informative(ci) {
			t.Fatalf("%s: class %d informative=%v, rebuilt says %v", tag, ci, got.Informative(ci), want.Informative(ci))
		}
		gp, gl := got.LabelOf(ci)
		wp, wl := want.LabelOf(ci)
		if gp != wp || gl != wl {
			t.Fatalf("%s: class %d label (%v,%v), rebuilt says (%v,%v)", tag, ci, gp, gl, wp, wl)
		}
	}
	if got.NumInformative() != want.NumInformative() {
		t.Fatalf("%s: infCount %d vs %d", tag, got.NumInformative(), want.NumInformative())
	}
	if !got.TPos().Equal(want.TPos()) {
		t.Fatalf("%s: T(S+) %v vs %v", tag, got.TPos(), want.TPos())
	}
	if got.Done() != want.Done() {
		t.Fatalf("%s: Done %v vs %v", tag, got.Done(), want.Done())
	}
}

// TestEngineApplyDeltaDifferential interleaves oracle-driven labeling with
// random deltas and checks the maintained engine is state-identical to one
// rebuilt from scratch at every version.
func TestEngineApplyDeltaDifferential(t *testing.T) {
	for seed := int64(0); seed < 25; seed++ {
		rng := rand.New(rand.NewSource(seed))
		inst := randInstance(rng, 4+rng.Intn(4), 4+rng.Intn(4), 2+rng.Intn(3))
		u := predicate.NewUniverse(inst)
		classes := product.ClassesIndexed(inst, u)
		e := New(inst, WithClasses(classes))

		// A fixed goal predicate keeps every answer consistent across
		// deltas: pick a random class's theta.
		goal := classes[rng.Intn(len(classes))].Theta

		for step := 0; step < 10; step++ {
			// Answer a couple of informative classes.
			for q := 0; q < 2 && !e.Done(); q++ {
				inf := e.InformativeClasses()
				ci := inf[rng.Intn(len(inf))]
				l := sample.Negative
				if goal.MoreGeneralThan(e.Classes()[ci].Theta) {
					l = sample.Positive
				}
				if err := e.Label(ci, l); err != nil {
					t.Fatalf("seed %d step %d: label: %v", seed, step, err)
				}
			}
			// Apply a random delta.
			var d relation.Delta
			d.InsertR = randTuples(rng, rng.Intn(2), 2, 3)
			d.InsertP = randTuples(rng, rng.Intn(2), 2, 3)
			if rng.Intn(2) == 0 {
				for ri := 0; ri < inst.R.Len() && len(d.DeleteR) == 0; ri++ {
					if inst.RAlive(ri) && rng.Intn(4) == 0 && inst.LiveR() > 1 {
						d.DeleteR = append(d.DeleteR, ri)
					}
				}
				for pi := 0; pi < inst.P.Len() && len(d.DeleteP) == 0; pi++ {
					if inst.PAlive(pi) && rng.Intn(4) == 0 && inst.LiveP() > 1 {
						d.DeleteP = append(d.DeleteP, pi)
					}
				}
			}
			next, err := inst.ApplyDelta(d)
			if err != nil {
				t.Fatalf("seed %d step %d: relation apply: %v", seed, step, err)
			}
			dr, err := product.ApplyDelta(inst, next, u, e.Classes(), d)
			if err != nil {
				t.Fatalf("seed %d step %d: product apply: %v", seed, step, err)
			}
			if _, err := e.ApplyDelta(next, dr); err != nil {
				t.Fatalf("seed %d step %d: engine apply: %v", seed, step, err)
			}
			want := rebuildReplay(t, next, dr.Classes, e.Sample().Examples())
			enginesEqual(t, "after delta", e, want)
			inst, classes = next, dr.Classes
		}
	}
}

// TestApplyDeltaRestoresPrunedNegatives: negatives n1 ⊂ n2 leave only n2
// in the kernel's ⊆-maximal list. Deleting n2's row drops its example, and
// n1 must settle what it covers again, while what only n2 covered turns
// informative — exactly as on an engine rebuilt from scratch.
func TestApplyDeltaRestoresPrunedNegatives(t *testing.T) {
	for _, n2First := range []bool{false, true} {
		// Pairs: 0 = (A1,B1), 1 = (A1,B2), 2 = (A2,B1), 3 = (A2,B2).
		r := relation.NewRelation(relation.MustSchema("R", "A1", "A2"))
		r.MustAddTuple("1", "9") // r0
		r.MustAddTuple("2", "8") // r1
		p := relation.NewRelation(relation.MustSchema("P", "B1", "B2"))
		p.MustAddTuple("1", "1") // p0: T(r0,p0) = {0,1} = n2
		p.MustAddTuple("1", "2") // p1: T(r0,p1) = {0} = n1, T(r1,p1) = {1}
		p.MustAddTuple("5", "5") // p2: T(·,p2) = ∅
		inst := relation.MustInstance(r, p)
		u := predicate.NewUniverse(inst)
		e := New(inst, WithClasses(product.ClassesIndexed(inst, u)))
		n1, n2 := classIndexFor(e, 0, 1), classIndexFor(e, 0, 0)
		order := []int{n1, n2}
		if n2First {
			order = []int{n2, n1}
		}
		for _, ci := range order {
			if err := e.Label(ci, sample.Negative); err != nil {
				t.Fatal(err)
			}
		}
		if got := len(e.Certainty().Negs); got != 1 {
			t.Fatalf("kernel keeps %d negative words, want n2 alone", got)
		}
		d := relation.Delta{DeleteP: []int{0}}
		next, err := inst.ApplyDelta(d)
		if err != nil {
			t.Fatal(err)
		}
		dr, err := product.ApplyDelta(inst, next, u, e.Classes(), d)
		if err != nil {
			t.Fatal(err)
		}
		if dropped, err := e.ApplyDelta(next, dr); err != nil || dropped != 1 {
			t.Fatalf("ApplyDelta dropped %d examples (err %v), want n2's", dropped, err)
		}
		enginesEqual(t, "after deleting n2", e, rebuildReplay(t, next, dr.Classes, e.Sample().Examples()))
		if empty := classIndexFor(e, 0, 2); e.Informative(empty) || !e.CertainNegative(empty) {
			t.Error("n1 no longer settles the ∅ class")
		}
		if only2 := classIndexFor(e, 1, 1); !e.Informative(only2) {
			t.Error("the class only n2 covered is still settled")
		}
	}
}
