package joininference

import (
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/predicate"
	"repro/internal/relation"
	"repro/internal/synth"
)

// The renaming metamorphic suite. The paper's definitions read attribute
// values only through equality: T(t) is the set of attribute pairs on
// which a product tuple's two halves agree, and everything else (the
// T-classes, Lemmas 3.3–3.4, entropy¹ and entropy²) is built on T. So
// renaming every value by one bijection over both relations must leave a
// join session's every output bit-identical: the classes in order, each
// question's (ri, pi) and label, and the inferred predicate. Unlike the
// differential suites, this catches a dependence on value spelling or on
// map and value order that two paths of this codebase would share.

// renameValues returns a copy of inst with every value replaced by its
// image under a random bijection: fresh spellings with a random prefix, so
// that the images sort, hash and compare in an order unrelated to the
// originals'. Schemas and row order are kept.
func renameValues(r *rand.Rand, inst *Instance) *Instance {
	image := make(map[relation.Value]relation.Value)
	perm := r.Perm(inst.R.Len()*inst.R.Schema.Arity() + inst.P.Len()*inst.P.Schema.Arity())
	rename := func(rel *Relation) *Relation {
		out := relation.NewRelation(rel.Schema)
		for _, t := range rel.Tuples {
			nt := make(relation.Tuple, len(t))
			for k, v := range t {
				if _, ok := image[v]; !ok {
					// The suffix is a distinct index, so images never collide.
					image[v] = fmt.Sprintf("%x-%d", r.Uint32(), perm[len(image)])
				}
				nt[k] = image[v]
			}
			out.Tuples = append(out.Tuples, nt)
		}
		return out
	}
	return relation.MustInstance(rename(inst.R), rename(inst.P))
}

// sameClasses reports whether two class sets list the same classes, with
// the same representatives and counts, in the same order.
func sameClasses(a, b *ClassSet) bool {
	if len(a.classes) != len(b.classes) {
		return false
	}
	for i, c := range a.classes {
		d := b.classes[i]
		if !c.Theta.Equal(d.Theta) || c.RI != d.RI || c.PI != d.PI || c.Count != d.Count {
			return false
		}
	}
	return true
}

// checkRenamingInvariant runs every join strategy on inst and on a renamed
// copy for each goal and fails at the first output that differs.
func checkRenamingInvariant(t *testing.T, r *rand.Rand, name string, inst *Instance, goals []Pred) {
	t.Helper()
	renamed := renameValues(r, inst)
	cs, csRenamed := PrecomputeClasses(inst), PrecomputeClasses(renamed)
	if !sameClasses(cs, csRenamed) {
		t.Fatalf("%s: renaming values changed the T-classes", name)
	}
	for g, goal := range goals {
		for _, id := range KnownStrategies() {
			var seqs [2][]TranscriptEntry
			var inferred [2]Pred
			for side, pair := range []struct {
				inst *Instance
				cs   *ClassSet
			}{{inst, cs}, {renamed, csRenamed}} {
				s := NewSession(pair.inst, WithStrategy(id), WithSeed(int64(g)), WithPrecomputedClasses(pair.cs))
				seqs[side] = transcriptSeq(t, s, goal)
				inferred[side] = s.Inferred()
			}
			if !sameEntries(seqs[0], seqs[1]) {
				t.Fatalf("%s goal %d %s: renaming values changed the questions:\n  original: %v\n  renamed:  %v",
					name, g, id, seqs[0], seqs[1])
			}
			if !inferred[0].Equal(inferred[1]) {
				t.Fatalf("%s goal %d %s: renaming values changed the inferred predicate: %v, renamed %v",
					name, g, id, inferred[0], inferred[1])
			}
		}
	}
}

// randomGoals returns n goal predicates over inst's universe: the empty
// predicate first, then random ones with each pair in with probability 1/3.
func randomGoals(r *rand.Rand, inst *Instance, n int) []Pred {
	u := predicate.NewUniverse(inst)
	goals := []Pred{{}}
	for len(goals) < n {
		var p Pred
		for id := 0; id < u.Size(); id++ {
			if r.Intn(3) == 0 {
				p.Set.Add(id)
			}
		}
		goals = append(goals, p)
	}
	return goals
}

// TestRenamingValuesKeepsJoinSessions: on random small synthetic instances
// (one-word universes) and on the 72-pair universe (two-word spans), every
// join strategy asks a bit-identical question sequence and infers the same
// predicate after every value is renamed by a random bijection.
func TestRenamingValuesKeepsJoinSessions(t *testing.T) {
	configs := []synth.Config{
		{AttrsR: 3, AttrsP: 3, Rows: 8, Values: 3},
		{AttrsR: 2, AttrsP: 4, Rows: 10, Values: 4},
		{AttrsR: 4, AttrsP: 3, Rows: 6, Values: 2},
	}
	for _, cfg := range configs {
		for seed := int64(0); seed < 4; seed++ {
			r := rand.New(rand.NewSource(seed))
			inst := synth.MustGenerate(cfg, seed)
			checkRenamingInvariant(t, r, fmt.Sprintf("%v seed %d", cfg, seed), inst, randomGoals(r, inst, 4))
		}
	}
	r := rand.New(rand.NewSource(1))
	inst := coldPathInstance(t)
	goals := append(randomGoals(r, inst, 3), coldPathGoal(inst))
	checkRenamingInvariant(t, r, "72-pair universe", inst, goals)
}
