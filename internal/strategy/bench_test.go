package strategy

import (
	"testing"

	"repro/internal/inference"
	"repro/internal/predicate"
	"repro/internal/synth"
)

func benchEngine(b *testing.B) *inference.Engine {
	b.Helper()
	inst := synth.MustGenerate(synth.Config{AttrsR: 3, AttrsP: 3, Rows: 100, Values: 100}, 5)
	return inference.New(inst)
}

func BenchmarkNextBU(b *testing.B) {
	e := benchEngine(b)
	s := BottomUp{}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.Next(e)
	}
}

func BenchmarkNextTD(b *testing.B) {
	e := benchEngine(b)
	s := NewTopDown()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.Next(e)
	}
}

func BenchmarkNextL1S(b *testing.B) {
	e := benchEngine(b)
	s := L1S(0)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.Next(e)
	}
}

func BenchmarkNextL2S(b *testing.B) {
	e := benchEngine(b)
	s := L2S(0)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.Next(e)
	}
}

// BenchmarkColdPath measures uncached (first-user) serving on a 72-pair
// universe (two-word predicates) — the work a policy cache cannot help.
// Each op is one full inference run; "arena" is the production engine,
// "legacy" the slice-based reference implementation the differential
// tests compare it with (legacy_test.go). questions/s is the custom
// throughput metric; allocs/op shows the arena discipline. Recorded in
// BENCH_coldpath.json.
func BenchmarkColdPath(b *testing.B) {
	inst := synth.MustGenerate(synth.Config{AttrsR: 9, AttrsP: 8, Rows: 6, Values: 3}, 1)
	e0 := inference.New(inst)
	if e0.U.Size() <= 64 {
		b.Fatalf("universe %d fits a word; want > 64", e0.U.Size())
	}
	classes := e0.Classes()
	goal := predicate.FromPairs(e0.U, [2]int{0, 0}, [2]int{3, 2})
	variants := []struct {
		name  string
		strat inference.Strategy
	}{
		{"L1S/arena", L1S(0)},
		{"L1S/legacy", legacyLookahead{K: 1}},
		{"L2S/arena", L2S(0)},
		{"L2S/legacy", legacyLookahead{K: 2}},
	}
	for _, v := range variants {
		b.Run(v.name, func(b *testing.B) {
			b.ReportAllocs()
			questions := 0
			for i := 0; i < b.N; i++ {
				e := inference.New(inst, inference.WithClasses(classes))
				n, err := honestRun(e, v.strat, goal)
				if err != nil {
					b.Fatal(err)
				}
				questions += n
			}
			b.ReportMetric(float64(questions)/b.Elapsed().Seconds(), "questions/s")
		})
	}
}

func BenchmarkNextOptimalExample21(b *testing.B) {
	// Optimal only runs on tiny instances; measure on the paper example.
	inst := synth.MustGenerate(synth.Config{AttrsR: 2, AttrsP: 2, Rows: 4, Values: 3}, 3)
	e := inference.New(inst)
	if len(e.Classes()) > DefaultMaxClasses {
		b.Skip("instance too large for OPT")
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		o := NewOptimal()
		o.Next(e)
	}
}
