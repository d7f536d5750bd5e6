package product

import (
	"fmt"

	"testing"

	"repro/internal/predicate"
	"repro/internal/synth"
	"repro/internal/tpch"
)

func BenchmarkClassesFullScan(b *testing.B) {
	inst := synth.MustGenerate(synth.Config{AttrsR: 3, AttrsP: 4, Rows: 200, Values: 100}, 7)
	u := predicate.NewUniverse(inst)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		Classes(inst, u)
	}
}

func BenchmarkClassesIndexed(b *testing.B) {
	inst := synth.MustGenerate(synth.Config{AttrsR: 3, AttrsP: 4, Rows: 200, Values: 100}, 7)
	u := predicate.NewUniverse(inst)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		ClassesIndexed(inst, u)
	}
}

func BenchmarkJoinRatio(b *testing.B) {
	inst := synth.MustGenerate(synth.Config{AttrsR: 3, AttrsP: 4, Rows: 200, Values: 100}, 7)
	u := predicate.NewUniverse(inst)
	cs := ClassesIndexed(inst, u)
	for i := 0; i < b.N; i++ {
		JoinRatio(cs)
	}
}

// BenchmarkClassesTPCH collects the T-classes of each of the paper's five
// TPC-H joins (multiplier 1, seed 42), the instances a cold registry load
// pays for.
func BenchmarkClassesTPCH(b *testing.B) {
	data := tpch.MustGenerate(1, 42)
	for _, j := range tpch.AllJoins() {
		inst, _, err := data.Instance(j)
		if err != nil {
			b.Fatal(err)
		}
		u := predicate.NewUniverse(inst)
		b.Run(fmt.Sprintf("join%d", int(j)), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				ClassesIndexed(inst, u)
			}
		})
	}
}
