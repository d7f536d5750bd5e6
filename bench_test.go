package joininference_test

// Benchmark harness: one benchmark per figure/table of the paper's
// evaluation (Section 5). Each figure bench runs the same workload the
// experiment harness renders (cmd/experiments regenerates the actual
// rows), through the same public Session loop joinserve serves; benches
// additionally report "interactions" as a custom metric so
// `go test -bench` output shows both measures the paper reports.
//
// Figure ↔ bench map:
//
//	Fig 6(a)/(c)  BenchmarkFig6TPCHScale1       (interactions + time, ×1)
//	Fig 6(b)/(d)  BenchmarkFig6TPCHScale100000  (interactions + time, ×4)
//	Fig 7(a)/(c)  BenchmarkFig7Synth/cfg_(3,_3,_100,_100)
//	Fig 7(b)/(d)  BenchmarkFig7Synth/cfg_(3,_3,_50,_100)
//	Fig 7(e)/(g)  BenchmarkFig7Synth/cfg_(3,_4,_50,_100)
//	Fig 7(f)/(h)  BenchmarkFig7Synth/cfg_(2,_5,_50,_100)
//	Fig 7(i)/(k)  BenchmarkFig7Synth/cfg_(2,_4,_50,_50)
//	Fig 7(j)/(l)  BenchmarkFig7Synth/cfg_(2,_4,_50,_100)
//	Table 1       BenchmarkTable1Summary
//	Thm 6.1       BenchmarkSemijoinConsistencyScaling (exponential growth)

import (
	"context"
	"fmt"
	"math/rand"
	"runtime"
	"testing"

	joininference "repro"
	"repro/internal/experiments"
	"repro/internal/inference"
	"repro/internal/paperdata"
	"repro/internal/predicate"
	"repro/internal/product"
	"repro/internal/sample"
	"repro/internal/semijoin"
	"repro/internal/synth"
	"repro/internal/tpch"
)

// reportInteractions attaches the average interaction count of the rows to
// the benchmark output.
func reportInteractions(b *testing.B, rows []experiments.Row) {
	b.Helper()
	var sum float64
	var n int
	for _, r := range rows {
		for _, c := range r.Cells {
			sum += c.Interactions
			n++
		}
	}
	if n > 0 {
		b.ReportMetric(sum/float64(n), "interactions/run")
	}
}

func benchTPCH(b *testing.B, mult int) {
	var rows []experiments.Row
	for i := 0; i < b.N; i++ {
		var err error
		rows, err = experiments.TPCH(experiments.TPCHOptions{Multiplier: mult, Seed: 42})
		if err != nil {
			b.Fatal(err)
		}
	}
	reportInteractions(b, rows)
}

// BenchmarkFig6TPCHScale1 regenerates Figure 6(a)/(c): all five goal joins,
// all five strategies, at the small scale.
func BenchmarkFig6TPCHScale1(b *testing.B) { benchTPCH(b, 1) }

// BenchmarkFig6TPCHScale100000 regenerates Figure 6(b)/(d): the large
// scale, mapped to row multiplier 4 (see tpch.SFToMultiplier).
func BenchmarkFig6TPCHScale100000(b *testing.B) {
	benchTPCH(b, tpch.SFToMultiplier(100000))
}

// BenchmarkFig6PerJoin breaks Figure 6 down: one sub-bench per (join,
// strategy, workers) so regressions localize. Workers only matters for the
// lookahead strategies (parallel candidate evaluation), so the other
// strategies run at w1 only; the reported "interactions" metric must be
// identical between w1 and wN — parallelism never changes the questions.
// RND is seeded as Figure 6(a) seeds it (42 ^ 1009·j), so every row's
// interactions are the published cell's.
func BenchmarkFig6PerJoin(b *testing.B) {
	data := tpch.MustGenerate(1, 42)
	ctx := context.Background()
	workerCounts := []int{1}
	if n := runtime.NumCPU(); n > 1 {
		workerCounts = append(workerCounts, n)
	}
	for _, j := range tpch.AllJoins() {
		inst, goal, err := data.Instance(j)
		if err != nil {
			b.Fatal(err)
		}
		cs := joininference.PrecomputeClasses(inst)
		for _, workers := range workerCounts {
			for _, id := range joininference.KnownStrategies() {
				if workers != 1 && id != joininference.StrategyL1S && id != joininference.StrategyL2S {
					continue
				}
				b.Run(fmt.Sprintf("join%d/%s/w%d", int(j), id, workers), func(b *testing.B) {
					interactions := 0
					for i := 0; i < b.N; i++ {
						s := joininference.NewSession(inst,
							joininference.WithPrecomputedClasses(cs),
							joininference.WithStrategy(id),
							joininference.WithParallelism(workers),
							joininference.WithSeed(42^(1009*int64(j))))
						res, err := joininference.Run(ctx, s, joininference.HonestOracle(goal))
						if err != nil {
							b.Fatal(err)
						}
						interactions = res.Questions
					}
					b.ReportMetric(float64(interactions), "interactions")
				})
			}
		}
	}
}

// BenchmarkFig7Synth regenerates Figure 7: per configuration, all goal
// sizes and strategies (a reduced number of runs/goals per iteration; the
// cmd/experiments tool exposes the full averaging).
func BenchmarkFig7Synth(b *testing.B) {
	for _, cfg := range synth.PaperConfigs() {
		b.Run("cfg_"+cfg.String(), func(b *testing.B) {
			var rows []experiments.Row
			for i := 0; i < b.N; i++ {
				var err error
				rows, err = experiments.Synth(experiments.SynthOptions{
					Config:          cfg,
					Runs:            2,
					Seed:            42,
					MaxGoalsPerSize: 4,
				})
				if err != nil {
					b.Fatal(err)
				}
			}
			reportInteractions(b, rows)
		})
	}
}

// BenchmarkTable1Summary assembles the whole Table 1 workload.
func BenchmarkTable1Summary(b *testing.B) {
	var rows []experiments.Row
	for i := 0; i < b.N; i++ {
		var err error
		rows, err = experiments.Table1(42, 1, 3, 1, 1)
		if err != nil {
			b.Fatal(err)
		}
	}
	reportInteractions(b, rows)
}

// BenchmarkSemijoinConsistencyScaling gives the Theorem 6.1 evidence: time
// to decide CONS⋉ on 3SAT reductions of growing size (worst-case
// exponential; the witness search stays feasible only because the formulas
// are small).
func BenchmarkSemijoinConsistencyScaling(b *testing.B) {
	for _, n := range []int{2, 4, 6, 8} {
		f := hardFormula(n)
		red, err := semijoin.Reduce(f)
		if err != nil {
			b.Fatal(err)
		}
		b.Run(fmt.Sprintf("vars%d", n), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, _, err := semijoin.NewSolver(semijoin.NewTable(red.Instance)).Consistent(red.Sample); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// hardFormula builds a satisfiable chain formula over n variables with
// 3-literal clauses linking consecutive variables.
func hardFormula(n int) semijoin.Formula {
	f := semijoin.Formula{NumVars: n}
	for i := 1; i+2 <= n; i++ {
		f.Clauses = append(f.Clauses,
			semijoin.Clause{semijoin.Literal(i), semijoin.Literal(-(i + 1)), semijoin.Literal(i + 2)},
			semijoin.Clause{semijoin.Literal(-i), semijoin.Literal(i + 1), semijoin.Literal(-(i + 2))},
		)
	}
	if len(f.Clauses) == 0 {
		f.Clauses = append(f.Clauses, semijoin.Clause{1})
	}
	return f
}

// BenchmarkAblationClassCollection compares the full O(|R|·|P|) product
// scan against the shared-value inverted-index scan on a sparse TPC-H
// instance.
func BenchmarkAblationClassCollection(b *testing.B) {
	data := tpch.MustGenerate(1, 42)
	inst, _, err := data.Instance(tpch.Join4)
	if err != nil {
		b.Fatal(err)
	}
	u := predicate.NewUniverse(inst)
	b.Run("full-scan", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			product.Classes(inst, u)
		}
	})
	b.Run("value-indexed", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			product.ClassesIndexed(inst, u)
		}
	})
}

// BenchmarkInformativeTest measures the PTIME informativeness test of
// Theorem 3.5 in isolation (the hot inner loop of every strategy).
func BenchmarkInformativeTest(b *testing.B) {
	inst := paperdata.Example21()
	e := inference.New(inst)
	// Midway through an interaction: the honest label of class 5 for the
	// goal {(A2,B3)}.
	c := e.Classes()[5]
	e.Label(5, sample.Label(predicate.FromPairs(e.U, [2]int{1, 2}).
		Selects(e.U, inst.R.Tuples[c.RI], inst.P.Tuples[c.PI])))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for ci := range e.Classes() {
			e.Informative(ci)
		}
	}
}

// BenchmarkSessionEndToEnd measures the public-API path on the travel
// scenario: a full Run against an honest oracle, with the product scan
// shared across iterations.
func BenchmarkSessionEndToEnd(b *testing.B) {
	inst := paperdata.FlightHotel()
	classes := joininference.PrecomputeClasses(inst)
	goal, err := joininference.PredFromNames(joininference.NewSession(inst).Universe(), [2]string{"To", "City"})
	if err != nil {
		b.Fatal(err)
	}
	ctx := context.Background()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s := joininference.NewSession(inst, joininference.WithPrecomputedClasses(classes))
		if _, err := joininference.Run(ctx, s, joininference.HonestOracle(goal)); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkNextQuestionsBatch measures the pairwise-informative batch
// selection that backs parallel crowd dispatch.
func BenchmarkNextQuestionsBatch(b *testing.B) {
	data := tpch.MustGenerate(1, 42)
	inst, _, err := data.Instance(tpch.Join2)
	if err != nil {
		b.Fatal(err)
	}
	classes := joininference.PrecomputeClasses(inst)
	ctx := context.Background()
	for _, k := range []int{1, 4, 16} {
		b.Run(fmt.Sprintf("k%d", k), func(b *testing.B) {
			batch := 0
			for i := 0; i < b.N; i++ {
				s := joininference.NewSession(inst, joininference.WithPrecomputedClasses(classes))
				qs, err := s.NextQuestions(ctx, k)
				if err != nil {
					b.Fatal(err)
				}
				batch = len(qs)
			}
			b.ReportMetric(float64(batch), "questions/batch")
		})
	}
}

// BenchmarkSemijoinSession measures one honest semijoin session on TPC-H
// join1, the amortisation the per-version witness table buys: "fresh"
// gives every session a cold ClassSet, so it computes T(r, p) for every
// row pair it touches; "shared" runs every session on one ClassSet whose
// table an earlier session already filled, as sessions on one registry
// entry do.
func BenchmarkSemijoinSession(b *testing.B) {
	data := tpch.MustGenerate(1, 42)
	inst, goal, err := data.Instance(tpch.Join1)
	if err != nil {
		b.Fatal(err)
	}
	ctx := context.Background()
	run := func(b *testing.B, cs *joininference.ClassSet) int {
		res, err := joininference.Run(ctx, joininference.NewSemijoinSession(inst, joininference.WithPrecomputedClasses(cs)), joininference.HonestOracle(goal))
		if err != nil {
			b.Fatal(err)
		}
		return res.Questions
	}
	b.Run("fresh", func(b *testing.B) {
		b.ReportAllocs()
		questions := 0
		for i := 0; i < b.N; i++ {
			questions = run(b, joininference.ColdClassSet(inst))
		}
		b.ReportMetric(float64(questions), "interactions")
	})
	b.Run("shared", func(b *testing.B) {
		warm := joininference.ColdClassSet(inst)
		run(b, warm)
		b.ReportAllocs()
		b.ResetTimer()
		questions := 0
		for i := 0; i < b.N; i++ {
			questions = run(b, warm)
		}
		b.ReportMetric(float64(questions), "interactions")
	})
}

// BenchmarkIngest measures one instance update as joinserve's ingest runs
// it: ApplyDelta moves the data to the next version, computes that
// version's T-classes and counts the classes minted and retired. Each op
// inserts one row in the style of joinbench's churn writer: a copy of a
// random row of R or P with one attribute taken from another row of the
// same relation. The instances are churn's two (synth (3, 3, 100, 100) and
// TPC-H join2) and TPC-H join4, the largest class list of the paper's
// joins. Every op advances the chain, so the instance grows by one row per
// op; -benchtime=75x matches the inserts one churn instance takes in a
// 15 s window.
func BenchmarkIngest(b *testing.B) {
	tpchInst := func(j tpch.Join) func() *joininference.Instance {
		return func() *joininference.Instance {
			inst, _, err := tpch.MustGenerate(1, 42).Instance(j)
			if err != nil {
				b.Fatal(err)
			}
			return inst
		}
	}
	for _, c := range []struct {
		name string
		inst func() *joininference.Instance
	}{
		{"synth-3-3-100-100", func() *joininference.Instance { return synth.MustGenerate(synth.PaperConfigs()[0], 1) }},
		{"join2", tpchInst(tpch.Join2)},
		{"join4", tpchInst(tpch.Join4)},
	} {
		b.Run(c.name, func(b *testing.B) {
			inst := c.inst()
			cs := joininference.PrecomputeClasses(inst)
			base := []*joininference.Relation{inst.R, inst.P}
			rng := rand.New(rand.NewSource(1))
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				side := rng.Intn(2)
				rel := base[side]
				row := append(joininference.Tuple(nil), rel.Tuples[rng.Intn(rel.Len())]...)
				attr := rng.Intn(len(row))
				row[attr] = rel.Tuples[rng.Intn(rel.Len())][attr]
				d := joininference.Delta{InsertR: []joininference.Tuple{row}}
				if side == 1 {
					d = joininference.Delta{InsertP: []joininference.Tuple{row}}
				}
				upd, err := joininference.ApplyDelta(inst, cs, d)
				if err != nil {
					b.Fatal(err)
				}
				inst, cs = upd.To, upd.Classes
			}
			b.ReportMetric(float64(b.Elapsed().Microseconds())/float64(b.N), "us/ingest")
		})
	}
}
