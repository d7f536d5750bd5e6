package inference

import (
	"math/rand"
	"testing"

	"repro/internal/sample"
	"repro/internal/synth"
)

// statelessInformative recomputes informativeness from first principles —
// a test-only copy of Lemmas 3.3 and 3.4 over predicate values, written
// independently of the certainty kernel, that the engine's incremental
// state must agree with after every label.
func statelessInformative(e *Engine, ci int) bool {
	if _, labeled := e.LabelOf(ci); labeled {
		return false
	}
	tpos, th := e.TPos(), e.Classes()[ci].Theta
	if tpos.MoreGeneralThan(th) { // Lemma 3.3
		return false
	}
	inter := tpos.Intersect(th)
	for _, n := range e.Sample().Negatives() { // Lemma 3.4, every negative
		if inter.MoreGeneralThan(n) {
			return false
		}
	}
	return true
}

// checkIncremental compares the cached certainty state against the
// stateless recomputation for every class, plus the derived aggregates.
func checkIncremental(t *testing.T, e *Engine, step int) {
	t.Helper()
	want := 0
	for ci := range e.Classes() {
		ref := statelessInformative(e, ci)
		if got := e.Informative(ci); got != ref {
			t.Fatalf("step %d class %d: cached Informative=%v, stateless=%v", step, ci, got, ref)
		}
		if ref {
			want++
		}
	}
	if got := e.NumInformative(); got != want {
		t.Fatalf("step %d: NumInformative=%d, stateless count=%d", step, got, want)
	}
	if got := e.Done(); got != (want == 0) {
		t.Fatalf("step %d: Done=%v with %d informative classes", step, got, want)
	}
	inf := e.InformativeClasses()
	if len(inf) != want {
		t.Fatalf("step %d: InformativeClasses returned %d entries, want %d", step, len(inf), want)
	}
	for _, ci := range inf {
		if !statelessInformative(e, ci) {
			t.Fatalf("step %d: InformativeClasses contains uninformative class %d", step, ci)
		}
	}
}

// TestIncrementalMatchesStateless: the certainty cache agrees with the
// stateless recomputation after every honest label, on single-word and
// multi-word (Ω > 64) universes.
func TestIncrementalMatchesStateless(t *testing.T) {
	configs := []synth.Config{
		{AttrsR: 3, AttrsP: 3, Rows: 12, Values: 4},
		{AttrsR: 9, AttrsP: 8, Rows: 5, Values: 3}, // Ω = 72: multi-word predicates
	}
	for _, cfg := range configs {
		for seed := int64(0); seed < 6; seed++ {
			inst := synth.MustGenerate(cfg, seed)
			e := New(inst)
			r := rand.New(rand.NewSource(seed))
			// Honest labeling w.r.t. a random class's theta as goal: θ
			// selects a tuple iff θ ⊆ T(t), so no inconsistency arises.
			goal := e.Classes()[r.Intn(len(e.Classes()))].Theta
			checkIncremental(t, e, 0)
			for step := 1; !e.Done(); step++ {
				inf := e.InformativeClasses()
				ci := inf[r.Intn(len(inf))]
				l := sample.Negative
				if goal.MoreGeneralThan(e.Classes()[ci].Theta) {
					l = sample.Positive
				}
				if err := e.Label(ci, l); err != nil {
					t.Fatalf("cfg %v seed %d step %d: %v", cfg, seed, step, err)
				}
				checkIncremental(t, e, step)
			}
		}
	}
}

// TestIncrementalSurvivesInconsistency: certainty is monotone in the raw
// sample (consistency is not required for Lemmas 3.3/3.4 to only gain
// witnesses), so even after a rejected label the cache matches the
// stateless tests — the state a caller observes before discarding the
// engine is coherent.
func TestIncrementalSurvivesInconsistency(t *testing.T) {
	inst := synth.MustGenerate(synth.Config{AttrsR: 3, AttrsP: 3, Rows: 10, Values: 3}, 2)
	for seed := int64(0); seed < 10; seed++ {
		e := New(inst)
		r := rand.New(rand.NewSource(seed))
		for step := 1; !e.Done(); step++ {
			inf := e.InformativeClasses()
			ci := inf[r.Intn(len(inf))]
			err := e.Label(ci, sample.Label(r.Intn(2) == 0))
			checkIncremental(t, e, step)
			if err != nil {
				break // engine would be discarded by callers; state checked above
			}
		}
	}
}

// TestInformativeClassesScratchReuse: successive calls reuse one backing
// array (the documented contract) and still return correct contents.
func TestInformativeClassesScratchReuse(t *testing.T) {
	inst := synth.MustGenerate(synth.Config{AttrsR: 2, AttrsP: 2, Rows: 6, Values: 3}, 1)
	e := New(inst)
	a := e.InformativeClasses()
	b := e.InformativeClasses()
	if len(a) == 0 || len(b) != len(a) {
		t.Fatalf("scratch calls disagree: %d vs %d", len(a), len(b))
	}
	if &a[0] != &b[0] {
		t.Error("InformativeClasses did not reuse its scratch backing array")
	}
	allocs := testing.AllocsPerRun(100, func() { e.InformativeClasses() })
	if allocs != 0 {
		t.Errorf("InformativeClasses allocates %.1f per call; want 0 steady-state", allocs)
	}
}
