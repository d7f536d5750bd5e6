package product

import (
	"fmt"
	"math/rand"
	"strconv"
	"testing"

	"repro/internal/predicate"
	"repro/internal/relation"
)

// randInstance builds a random instance with a small value domain so class
// merges, mints and retirements all occur.
func randInstance(rng *rand.Rand, nR, nP, vals int) *relation.Instance {
	r := relation.NewRelation(relation.MustSchema("R", "A", "B"))
	for i := 0; i < nR; i++ {
		r.MustAddTuple(strconv.Itoa(rng.Intn(vals)), strconv.Itoa(rng.Intn(vals)))
	}
	p := relation.NewRelation(relation.MustSchema("P", "C", "D", "E"))
	for i := 0; i < nP; i++ {
		p.MustAddTuple(strconv.Itoa(rng.Intn(vals)), strconv.Itoa(rng.Intn(vals)), strconv.Itoa(rng.Intn(vals)))
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

// randDelta draws a random mixed delta against the instance's live rows.
func randDelta(rng *rand.Rand, inst *relation.Instance, vals int) relation.Delta {
	var d relation.Delta
	d.InsertR = randTuples(rng, rng.Intn(3), inst.R.Schema.Arity(), vals)
	d.InsertP = randTuples(rng, rng.Intn(3), inst.P.Schema.Arity(), vals)
	pickLive := func(n int, alive func(int) bool, max int) []int {
		var live []int
		for i := 0; i < n; i++ {
			if alive(i) {
				live = append(live, i)
			}
		}
		rng.Shuffle(len(live), func(a, b int) { live[a], live[b] = live[b], live[a] })
		k := rng.Intn(max + 1)
		if k > len(live)-1 { // keep at least one live row
			k = len(live) - 1
		}
		if k < 0 {
			k = 0
		}
		return live[:k]
	}
	d.DeleteR = pickLive(inst.R.Len(), inst.RAlive, 2)
	d.DeleteP = pickLive(inst.P.Len(), inst.PAlive, 2)
	return d
}

// classesEqual compares two class lists exactly: order, thetas,
// representatives and counts.
func classesEqual(a, b []*Class) error {
	if len(a) != len(b) {
		return fmt.Errorf("%d classes vs %d", len(a), len(b))
	}
	for i := range a {
		if !a[i].Theta.Equal(b[i].Theta) {
			return fmt.Errorf("class %d: theta %v vs %v", i, a[i].Theta, b[i].Theta)
		}
		if a[i].RI != b[i].RI || a[i].PI != b[i].PI {
			return fmt.Errorf("class %d (%v): rep (%d,%d) vs (%d,%d)", i, a[i].Theta, a[i].RI, a[i].PI, b[i].RI, b[i].PI)
		}
		if a[i].Count != b[i].Count {
			return fmt.Errorf("class %d (%v): count %d vs %d", i, a[i].Theta, a[i].Count, b[i].Count)
		}
	}
	return nil
}

// TestApplyDeltaDifferential drives random delta chains and checks the
// maintained classes are bit-identical to an indexed rebuild at every
// version, and that the remap is faithful.
func TestApplyDeltaDifferential(t *testing.T) {
	for seed := int64(0); seed < 30; seed++ {
		rng := rand.New(rand.NewSource(seed))
		inst := randInstance(rng, 3+rng.Intn(6), 3+rng.Intn(6), 2+rng.Intn(4))
		u := predicate.NewUniverse(inst)
		classes := ClassesIndexed(inst, u)
		for step := 0; step < 8; step++ {
			d := randDelta(rng, inst, 2+rng.Intn(4))
			next, err := inst.ApplyDelta(d)
			if err != nil {
				t.Fatalf("seed %d step %d: relation apply: %v", seed, step, err)
			}
			dr, err := ApplyDelta(inst, next, u, classes, d)
			if err != nil {
				t.Fatalf("seed %d step %d: product apply: %v", seed, step, err)
			}
			want := ClassesIndexed(next, u)
			if err := classesEqual(dr.Classes, want); err != nil {
				t.Fatalf("seed %d step %d (delta %+v): maintained ≠ rebuilt: %v", seed, step, d, err)
			}
			// Classes are matched across versions by T mask: an old mask
			// missing from the new list is retired, a new mask missing from
			// the old list is minted.
			oldKeys := make(map[string]bool, len(classes))
			for _, c := range classes {
				oldKeys[c.Theta.Key()] = true
			}
			newKeys := make(map[string]bool, len(dr.Classes))
			minted := make(map[int]bool)
			for i, c := range dr.Classes {
				newKeys[c.Theta.Key()] = true
				if !oldKeys[c.Theta.Key()] {
					minted[i] = true
				}
			}
			retired := 0
			for k := range oldKeys {
				if !newKeys[k] {
					retired++
				}
			}
			if retired != dr.Retired {
				t.Fatalf("seed %d step %d: Retired=%d, T masks say %d", seed, step, dr.Retired, retired)
			}
			if len(dr.Added) != len(minted) {
				t.Fatalf("seed %d step %d: Added lists %d classes, T masks say %d", seed, step, len(dr.Added), len(minted))
			}
			for _, ni := range dr.Added {
				if !minted[ni] {
					t.Fatalf("seed %d step %d: Added class %d existed before", seed, step, ni)
				}
			}
			// Old classes were not mutated in place.
			old := ClassesIndexed(inst, u)
			if err := classesEqual(classes, old); err != nil {
				t.Fatalf("seed %d step %d: old classes mutated: %v", seed, step, err)
			}
			inst, classes = next, dr.Classes
		}
	}
}

// TestApplyDeltaInsertOnly checks the common ingest shape: pure inserts
// never retire classes and report count changes faithfully.
func TestApplyDeltaInsertOnly(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	inst := randInstance(rng, 5, 5, 3)
	u := predicate.NewUniverse(inst)
	classes := ClassesIndexed(inst, u)
	d := relation.Delta{InsertR: randTuples(rng, 1, 2, 3)}
	next, err := inst.ApplyDelta(d)
	if err != nil {
		t.Fatal(err)
	}
	dr, err := ApplyDelta(inst, next, u, classes, d)
	if err != nil {
		t.Fatal(err)
	}
	if dr.Retired != 0 {
		t.Fatalf("insert-only delta retired %d classes", dr.Retired)
	}
	if err := classesEqual(dr.Classes, ClassesIndexed(next, u)); err != nil {
		t.Fatal(err)
	}
}
