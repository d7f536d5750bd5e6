package semijoin

import (
	"fmt"
	"testing"
)

// chainFormula builds a satisfiable chain 3CNF over n variables.
func chainFormula(n int) Formula {
	f := Formula{NumVars: n}
	for i := 1; i+2 <= n; i++ {
		f.Clauses = append(f.Clauses,
			Clause{Literal(i), Literal(-(i + 1)), Literal(i + 2)},
			Clause{Literal(-i), Literal(i + 1), Literal(-(i + 2))},
		)
	}
	if len(f.Clauses) == 0 {
		f.Clauses = append(f.Clauses, Clause{1})
	}
	return f
}

func BenchmarkConsistentReduction(b *testing.B) {
	for _, n := range []int{3, 5, 7} {
		red, err := Reduce(chainFormula(n))
		if err != nil {
			b.Fatal(err)
		}
		b.Run(fmt.Sprintf("vars%d", n), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, _, err := NewSolver(NewTable(red.Instance)).Consistent(red.Sample); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

func BenchmarkDPLL(b *testing.B) {
	f := chainFormula(20)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, ok := f.Solve(); !ok {
			b.Fatal("chain formula should be satisfiable")
		}
	}
}

func BenchmarkReduce(b *testing.B) {
	f := chainFormula(10)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := Reduce(f); err != nil {
			b.Fatal(err)
		}
	}
}
