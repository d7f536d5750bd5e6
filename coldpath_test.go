package joininference

import (
	"context"
	"slices"
	"testing"

	"repro/internal/predicate"
	"repro/internal/synth"
)

// The cold-path differential suite: on a >64-pair universe (Ω = 9·8 = 72,
// two-word predicates) every strategy must ask a bit-identical question
// sequence at every parallelism — the lookahead's arena engine, the
// incremental inference engine, and the semijoin solver are pure
// optimizations.

// coldPathInstance returns the 72-pair instance shared by the suite.
func coldPathInstance(tb testing.TB) *Instance {
	tb.Helper()
	inst := synth.MustGenerate(synth.Config{AttrsR: 9, AttrsP: 8, Rows: 5, Values: 3}, 1)
	if predicate.NewUniverse(inst).Size() <= 64 {
		tb.Fatal("universe fits a word; want > 64")
	}
	return inst
}

// coldPathGoal is a two-pair goal predicate over the 72-pair universe.
func coldPathGoal(inst *Instance) Pred {
	u := predicate.NewUniverse(inst)
	return predicate.FromPairs(u, [2]int{0, 0}, [2]int{3, 2})
}

// transcriptSeq runs a session to completion and returns the ordered
// (RIndex, PIndex, label) sequence it asked.
func transcriptSeq(t *testing.T, s *Session, goal Pred) []TranscriptEntry {
	t.Helper()
	if _, err := Run(context.Background(), s, HonestOracle(goal)); err != nil {
		t.Fatal(err)
	}
	return s.Transcript()
}

func sameEntries(a, b []TranscriptEntry) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// TestColdPathJoinSequencesBitIdentical: for all five strategies on the
// >64-pair universe, join sessions ask the same questions at Workers 1 and
// 4 and infer an instance-equivalent predicate. (Arena-vs-legacy sequence
// equality for the lookaheads is asserted in internal/strategy; the
// incremental engine is differentially tested in internal/inference.)
func TestColdPathJoinSequencesBitIdentical(t *testing.T) {
	inst := coldPathInstance(t)
	goal := coldPathGoal(inst)
	u := predicate.NewUniverse(inst)
	cs := PrecomputeClasses(inst)
	want := predicate.Join(inst, u, goal)
	for _, id := range KnownStrategies() {
		var base []TranscriptEntry
		for _, workers := range []int{1, 4} {
			s := NewSession(inst, WithStrategy(id), WithSeed(7),
				WithParallelism(workers), WithPrecomputedClasses(cs))
			seq := transcriptSeq(t, s, goal)
			if len(seq) == 0 {
				t.Fatalf("%s/w%d: empty question sequence", id, workers)
			}
			if workers == 1 {
				base = seq
			} else if !sameEntries(base, seq) {
				t.Fatalf("%s: question sequence diverged between Workers 1 and %d:\n  w1: %v\n  w%d: %v",
					id, workers, base, workers, seq)
			}
			got := predicate.Join(inst, u, s.Inferred())
			if len(got) != len(want) {
				t.Fatalf("%s/w%d: inferred predicate not instance-equivalent (%d vs %d join tuples)",
					id, workers, len(got), len(want))
			}
		}
	}
}

// TestColdPathSemijoinSequencesBitIdentical: semijoin sessions on the
// 72-pair instance ask the scan-order sequence pinned below — the one the
// seed implementation's package-level CONS⋉ search produced — for every
// strategy id (ignored by semijoin sessions) and parallelism, and end with
// a predicate whose semijoin is the goal's.
func TestColdPathSemijoinSequencesBitIdentical(t *testing.T) {
	inst := coldPathInstance(t)
	goal := coldPathGoal(inst)
	ref := []TranscriptEntry{
		{RIndex: 0, PIndex: -1, Positive: false},
		{RIndex: 1, PIndex: -1, Positive: true},
		{RIndex: 2, PIndex: -1, Positive: true},
		{RIndex: 3, PIndex: -1, Positive: false},
		{RIndex: 4, PIndex: -1, Positive: true},
	}
	want := SemijoinEval(inst, goal)

	for _, id := range KnownStrategies() {
		for _, workers := range []int{1, 4} {
			s := NewSemijoinSession(inst, WithStrategy(id), WithSeed(7), WithParallelism(workers))
			seq := transcriptSeq(t, s, goal)
			if !sameEntries(ref, seq) {
				t.Fatalf("%s/w%d: semijoin sequence diverged from seed reference:\n  ref: %v\n  got: %v",
					id, workers, ref, seq)
			}
			if got := SemijoinEval(inst, s.Inferred()); !slices.Equal(got, want) {
				t.Fatalf("%s/w%d: inferred semijoin %v, goal's %v", id, workers, got, want)
			}
		}
	}
}
