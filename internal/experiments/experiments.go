// Package experiments reproduces the paper's experimental study
// (Section 5): Figure 6 (the five TPC-H goal joins at two scales),
// Figure 7 (six synthetic configurations, goals grouped by predicate size),
// and Table 1 (the summary with Cartesian-product sizes, join ratios, best
// strategies and timings).
//
// Each experiment measures, for each built-in strategy in the paper's order
// (joininference.KnownStrategies), the number of user interactions
// and the wall-clock inference time, exactly the two measures the paper
// reports. Every inference is one public Session driven by Run against an
// HonestOracle, the loop joinserve serves, with the instance's T-classes
// computed once and shared by all its sessions. Results carry enough
// metadata to render the paper-style rows (render.go).
package experiments

import (
	"context"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	joininference "repro"
	"repro/internal/lattice"
	"repro/internal/pool"
	"repro/internal/predicate"
	"repro/internal/product"
	"repro/internal/relation"
	"repro/internal/stats"
	"repro/internal/synth"
	"repro/internal/tpch"
)

// forEachTask runs fn(i) for every i in [0, n), fanning across at most
// workers goroutines (0 or 1 = sequential). fn must confine its writes to
// per-index slots.
func forEachTask(workers, n int, fn func(i int)) {
	pool.ForEach(context.Background(), workers, n, fn)
}

// workload is one instance with the class set its sessions share and the
// class statistics the rows report.
type workload struct {
	inst  *relation.Instance
	cs    *joininference.ClassSet
	stats lattice.Stats
}

// newWorkload builds inst's shared class set and its statistics, and
// returns the classes for callers that derive goals from them. A ClassSet
// keeps its classes to its sessions, so the statistics group the product
// a second time, once per instance.
func newWorkload(inst *relation.Instance) (workload, []*product.Class) {
	classes := product.ClassesIndexed(inst, predicate.NewUniverse(inst))
	return workload{
		inst:  inst,
		cs:    joininference.PrecomputeClasses(inst),
		stats: lattice.ComputeStats(classes),
	}, classes
}

// Cell is one (strategy, workload) measurement, averaged over the
// workload's goals and runs.
type Cell struct {
	Interactions float64
	Seconds      float64
	Runs         int
	// InteractionsStdDev is the sample standard deviation across the
	// workload's goals and runs (0 for single measurements).
	InteractionsStdDev float64
}

// Row is one workload line of a figure or table.
type Row struct {
	// Dataset identifies the instance family ("TPC-H ×1", "(3, 3, 50, 100)").
	Dataset string
	// Workload identifies the goal group ("Join 1 (size 1)", "|θG| = 2").
	Workload string
	// GoalSize is |θG| for the group.
	GoalSize int
	// ProductSize, Classes, JoinRatio describe the instance(s); for
	// multi-run synthetic rows they are averages.
	ProductSize float64
	Classes     float64
	JoinRatio   float64
	// Cells maps strategy name → measurement.
	Cells map[string]Cell
}

// Best returns the strategy with the fewest interactions (ties broken by
// smaller time, then by the paper's ordering of names).
func (r Row) Best(order []string) (string, Cell) {
	bestName := ""
	var best Cell
	for _, name := range order {
		c, ok := r.Cells[name]
		if !ok {
			continue
		}
		if bestName == "" ||
			c.Interactions < best.Interactions ||
			(c.Interactions == best.Interactions && c.Seconds < best.Seconds) {
			bestName, best = name, c
		}
	}
	return bestName, best
}

// runOne executes one inference run and returns interactions and duration.
// seed seeds RND; an honest user never needs more questions than there are
// classes, so the budget stops a strategy that loops.
func runOne(wl *workload, id joininference.StrategyID, workers int,
	goal predicate.Pred, seed int64) (int, time.Duration, error) {
	s := joininference.NewSession(wl.inst,
		joininference.WithPrecomputedClasses(wl.cs),
		joininference.WithStrategy(id),
		joininference.WithParallelism(workers),
		joininference.WithSeed(seed),
		joininference.WithBudget(wl.cs.Len()))
	start := time.Now()
	res, err := joininference.Run(context.Background(), s, joininference.HonestOracle(goal))
	if err != nil {
		return 0, 0, fmt.Errorf("%s on %s: %w", id, goal.Format(s.Universe()), err)
	}
	return res.Questions, time.Since(start), nil
}

// TPCHOptions configures the Figure 6 experiments.
type TPCHOptions struct {
	// Multiplier is the row-count multiplier (see tpch.SFToMultiplier).
	Multiplier int
	// Seed drives data generation and RND.
	Seed int64
	// Joins restricts the goal joins; nil means all five.
	Joins []tpch.Join
	// Workers fans each lookahead question's candidate evaluation across
	// that many goroutines (joininference.WithParallelism); interaction
	// counts are unaffected.
	Workers int
	// Parallelism runs that many (join, strategy) inference tasks
	// concurrently (0 or 1 = sequential, negative = one per CPU). Interaction
	// counts are unaffected
	// (every task is an independent run); per-task wall-clock times gain
	// scheduling noise, so keep it at 1 when timing precision matters.
	Parallelism int
}

// TPCH runs the Figure 6 experiment: for each goal join, every strategy's
// interaction count and inference time. Each (join, strategy) run is an
// independent task, fanned across Parallelism goroutines; results are
// merged in (join, strategy) order, so rows are deterministic regardless
// of scheduling.
func TPCH(o TPCHOptions) ([]Row, error) {
	if o.Multiplier < 1 {
		o.Multiplier = 1
	}
	joins := o.Joins
	if joins == nil {
		joins = tpch.AllJoins()
	}
	ids := joininference.KnownStrategies()
	data, err := tpch.Generate(o.Multiplier, o.Seed)
	if err != nil {
		return nil, err
	}
	// Workloads materialize lazily (first task of a join builds its
	// instance and classes) and are released once the join's last task
	// finishes, so peak memory stays at the joins currently in flight —
	// one for a sequential run.
	type lazyWorkload struct {
		once    sync.Once
		wl      workload
		goal    predicate.Pred
		err     error
		pending atomic.Int32
	}
	wls := make([]*lazyWorkload, len(joins))
	for ji := range wls {
		wls[ji] = &lazyWorkload{}
		wls[ji].pending.Store(int32(len(ids)))
	}
	materialize := func(ji int) *lazyWorkload {
		lw := wls[ji]
		lw.once.Do(func() {
			inst, goal, err := data.Instance(joins[ji])
			if err != nil {
				lw.err = err
				return
			}
			lw.wl, _ = newWorkload(inst)
			lw.goal = goal
		})
		return lw
	}
	type taskResult struct {
		n   int
		d   time.Duration
		err error
	}
	results := make([]taskResult, len(joins)*len(ids))
	forEachTask(o.Parallelism, len(results), func(i int) {
		ji, si := i/len(ids), i%len(ids)
		lw := materialize(ji)
		if lw.err != nil {
			results[i] = taskResult{err: lw.err}
		} else {
			seed := int64(joins[ji]) * 1009
			n, d, err := runOne(&lw.wl, ids[si], o.Workers, lw.goal, o.Seed^seed)
			results[i] = taskResult{n: n, d: d, err: err}
		}
		if lw.pending.Add(-1) == 0 {
			lw.wl.inst, lw.wl.cs = nil, nil // stats and goal stay for the rows
		}
	})
	var rows []Row
	for ji, j := range joins {
		st := wls[ji].wl.stats
		row := Row{
			Dataset:     fmt.Sprintf("TPC-H ×%d", o.Multiplier),
			Workload:    fmt.Sprintf("%s (size %d)", j, j.GoalSize()),
			GoalSize:    j.GoalSize(),
			ProductSize: float64(st.ProductSize),
			Classes:     float64(st.Classes),
			JoinRatio:   st.JoinRatio,
			Cells:       make(map[string]Cell, len(ids)),
		}
		for si, id := range ids {
			res := results[ji*len(ids)+si]
			if res.err != nil {
				return nil, res.err
			}
			row.Cells[string(id)] = Cell{
				Interactions: float64(res.n),
				Seconds:      res.d.Seconds(),
				Runs:         1,
			}
		}
		rows = append(rows, row)
	}
	return rows, nil
}

// SynthOptions configures the Figure 7 experiments.
type SynthOptions struct {
	Config synth.Config
	// Runs is the number of random instances averaged (the paper uses 100).
	Runs int
	// Seed is the base seed; run i uses Seed+i.
	Seed int64
	// MaxGoalsPerSize caps the number of goal predicates evaluated per
	// predicate size in each run (0 = all non-nullable goals, as the
	// paper). The cap samples deterministically by taking the first goals
	// in canonical order.
	MaxGoalsPerSize int
	// MaxGoalSize bounds the goal sizes reported (the paper plots 0–4).
	MaxGoalSize int
	// Workers fans each lookahead question's candidate evaluation across
	// that many goroutines (joininference.WithParallelism); interaction
	// counts are unaffected.
	Workers int
	// Parallelism runs that many (strategy, goal) inference tasks
	// concurrently (0 or 1 = sequential, negative = one per CPU) —
	// finer-grained than whole
	// instances, so cores stay busy even for a single slow run. Interaction
	// counts are unaffected (every task is an independent, deterministically
	// seeded run); per-task wall-clock times gain scheduling noise, so keep
	// it at 1 when timing precision matters.
	Parallelism int
}

// Synth runs the Figure 7 experiment for one configuration: average
// interactions and time per strategy, grouped by goal-predicate size.
func Synth(o SynthOptions) ([]Row, error) {
	if o.Runs < 1 {
		o.Runs = 1
	}
	if o.MaxGoalSize == 0 {
		o.MaxGoalSize = 4
	}
	ids := joininference.KnownStrategies()

	// Phase 1: generate the instances (one per run, each independently
	// seeded), in parallel — generation is cheap but not free at 100 runs.
	// All runs are held live through phase 3 so tasks can be enumerated and
	// scheduled freely; the paper configurations yield a few dozen classes
	// per instance, so even 100 runs stay in the low megabytes.
	type instanceData struct {
		wl    workload
		goals map[int][]predicate.Pred
		err   error
	}
	insts := make([]instanceData, o.Runs)
	forEachTask(o.Parallelism, o.Runs, func(run int) {
		inst, err := synth.Generate(o.Config, o.Seed+int64(run))
		if err != nil {
			insts[run] = instanceData{err: err}
			return
		}
		wl, classes := newWorkload(inst)
		insts[run] = instanceData{wl: wl, goals: lattice.GoalsBySize(classes)}
	})
	for run := range insts {
		if err := insts[run].err; err != nil {
			return nil, err
		}
	}

	// Phase 2: flatten every (run, size, strategy, goal) inference into an
	// independent task. The task order (run-major, then size, strategy,
	// goal) is the order a sequential loop measures in, so the aggregation
	// below does not depend on scheduling.
	type task struct {
		run, size, si int
		goal          predicate.Pred
		seed          int64
		inter, secs   float64
		err           error
	}
	var tasks []task
	for run := 0; run < o.Runs; run++ {
		goals := insts[run].goals
		for size := 0; size <= o.MaxGoalSize; size++ {
			gs := goals[size]
			if o.MaxGoalsPerSize > 0 && len(gs) > o.MaxGoalsPerSize {
				gs = gs[:o.MaxGoalsPerSize]
			}
			for si := range ids {
				for gi, goal := range gs {
					tasks = append(tasks, task{
						run: run, size: size, si: si, goal: goal,
						seed: int64(run)*1000003 + int64(size)*1009 + int64(gi)*31,
					})
				}
			}
		}
	}

	// Phase 3: execute the tasks on the worker pool; each writes only its
	// own slot.
	forEachTask(o.Parallelism, len(tasks), func(i int) {
		t := &tasks[i]
		n, d, err := runOne(&insts[t.run].wl, ids[t.si], o.Workers, t.goal, o.Seed^t.seed)
		if err != nil {
			t.err = err
			return
		}
		t.inter, t.secs = float64(n), d.Seconds()
	})

	// Phase 4: merge in task order so aggregates are deterministic
	// regardless of scheduling.
	type acc struct {
		inter, secs stats.Acc
	}
	accs := make(map[int]map[string]*acc) // size → strategy → accumulators
	var prodSum, classSum, ratioSum float64
	instances := 0
	for run := 0; run < o.Runs; run++ {
		st := insts[run].wl.stats
		prodSum += float64(st.ProductSize)
		classSum += float64(st.Classes)
		ratioSum += st.JoinRatio
		instances++
	}
	for i := range tasks {
		t := &tasks[i]
		if t.err != nil {
			return nil, t.err
		}
		if accs[t.size] == nil {
			accs[t.size] = make(map[string]*acc)
		}
		name := string(ids[t.si])
		a := accs[t.size][name]
		if a == nil {
			a = &acc{}
			accs[t.size][name] = a
		}
		a.inter.Add(t.inter)
		a.secs.Add(t.secs)
	}

	var rows []Row
	for size := 0; size <= o.MaxGoalSize; size++ {
		byStrat := accs[size]
		if byStrat == nil {
			continue
		}
		row := Row{
			Dataset:     o.Config.String(),
			Workload:    fmt.Sprintf("|θG| = %d", size),
			GoalSize:    size,
			ProductSize: prodSum / float64(instances),
			Classes:     classSum / float64(instances),
			JoinRatio:   ratioSum / float64(instances),
			Cells:       make(map[string]Cell, len(byStrat)),
		}
		for name, a := range byStrat {
			if a.inter.N() == 0 {
				continue
			}
			row.Cells[name] = Cell{
				Interactions:       a.inter.Mean(),
				Seconds:            a.secs.Mean(),
				Runs:               a.inter.N(),
				InteractionsStdDev: a.inter.StdDev(),
			}
		}
		rows = append(rows, row)
	}
	return rows, nil
}

// Table1 assembles the summary table from TPC-H rows at the two scales and
// the six synthetic configurations, with every built-in strategy;
// parallelism and workers fan the inference tasks and the lookahead
// candidates like TPCHOptions/SynthOptions do.
func Table1(seed int64, synthRuns, maxGoalsPerSize, parallelism, workers int) ([]Row, error) {
	var rows []Row
	for _, mult := range []int{1, tpch.SFToMultiplier(100000)} {
		rs, err := TPCH(TPCHOptions{Multiplier: mult, Seed: seed, Workers: workers, Parallelism: parallelism})
		if err != nil {
			return nil, err
		}
		rows = append(rows, rs...)
	}
	for _, cfg := range synth.PaperConfigs() {
		rs, err := Synth(SynthOptions{
			Config:          cfg,
			Runs:            synthRuns,
			Seed:            seed,
			MaxGoalsPerSize: maxGoalsPerSize,
			Workers:         workers,
			Parallelism:     parallelism,
		})
		if err != nil {
			return nil, err
		}
		rows = append(rows, rs...)
	}
	return rows, nil
}
