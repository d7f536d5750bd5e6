// Command experiments regenerates the paper's evaluation (Section 5):
// Figure 6 (TPC-H joins at two scales), Figure 7 (six synthetic
// configurations) and Table 1 (the overall summary).
//
// Usage:
//
//	experiments                 # everything
//	experiments -fig 6a         # one panel
//	experiments -fig 7b -runs 20
//	experiments -table 1
//	experiments -fig 6a -workers -1   # lookahead candidates on every CPU
//
// Panel ids follow the paper: 6a/6b are TPC-H interactions at the two
// scales, 6c/6d the times; 7a…7l alternate interactions/times for the six
// synthetic configurations (a,c = config 1; b,d = config 2; e,g = 3;
// f,h = 4; i,k = 5; j,l = 6).
//
// Every inference is one joininference Session over the instance's shared
// T-classes, driven by Run against an honest oracle: the strategies are
// the built-in five (BU, TD, L1S, L2S, RND), and the counts are the ones
// joinserve's sessions produce. -workers is the sessions' WithParallelism;
// -parallel runs whole inferences concurrently.
package main

import (
	"flag"
	"fmt"
	"os"
	"runtime"
	"runtime/pprof"
	"strings"

	"repro/internal/experiments"
	"repro/internal/synth"
	"repro/internal/tpch"
)

func main() {
	fig := flag.String("fig", "", "figure panel to run (6a…6d, 7a…7l); empty = all")
	table := flag.String("table", "", "table to run (1); empty = none unless no -fig either")
	runs := flag.Int("runs", 10, "synthetic runs to average (paper: 100)")
	parallel := flag.Int("parallel", 1, "(strategy, goal) inference tasks to evaluate concurrently; -1 = all CPUs; interaction counts are unaffected but timings get noisy above 1")
	workers := flag.Int("workers", 1, "goroutines per lookahead question (candidate evaluation); -1 = all CPUs; interaction counts are unaffected")
	goals := flag.Int("goals", 10, "max goal predicates per size for synthetic data (0 = all)")
	seed := flag.Int64("seed", 42, "base random seed")
	cpuprofile := flag.String("cpuprofile", "", "write a CPU profile of the experiment run to this file")
	memprofile := flag.String("memprofile", "", "write a heap profile (after the run) to this file")
	flag.Parse()

	stopCPU, err := startCPUProfile(*cpuprofile)
	if err != nil {
		fmt.Fprintln(os.Stderr, "experiments:", err)
		os.Exit(1)
	}
	runErr := run(*fig, *table, *runs, *goals, *seed, *parallel, *workers)
	stopCPU()
	if err := writeMemProfile(*memprofile); err != nil && runErr == nil {
		runErr = err
	}
	if runErr != nil {
		fmt.Fprintln(os.Stderr, "experiments:", runErr)
		os.Exit(1)
	}
}

// startCPUProfile begins CPU profiling into path ("" disables) and returns
// the stop function.
func startCPUProfile(path string) (func(), error) {
	if path == "" {
		return func() {}, nil
	}
	f, err := os.Create(path)
	if err != nil {
		return nil, fmt.Errorf("creating cpu profile: %w", err)
	}
	if err := pprof.StartCPUProfile(f); err != nil {
		f.Close()
		return nil, fmt.Errorf("starting cpu profile: %w", err)
	}
	return func() {
		pprof.StopCPUProfile()
		f.Close()
	}, nil
}

// writeMemProfile dumps a GC-fresh heap profile to path ("" disables).
func writeMemProfile(path string) error {
	if path == "" {
		return nil
	}
	f, err := os.Create(path)
	if err != nil {
		return fmt.Errorf("creating mem profile: %w", err)
	}
	defer f.Close()
	runtime.GC()
	if err := pprof.WriteHeapProfile(f); err != nil {
		return fmt.Errorf("writing mem profile: %w", err)
	}
	return nil
}

func run(fig, table string, runs, goals int, seed int64, parallel, workers int) error {
	all := fig == "" && table == ""
	configs := synth.PaperConfigs()

	// Figure 6.
	for _, spec := range []struct {
		id    string
		mult  int
		times bool
	}{
		{"6a", 1, false},
		{"6b", tpch.SFToMultiplier(100000), false},
		{"6c", 1, true},
		{"6d", tpch.SFToMultiplier(100000), true},
	} {
		if !all && !strings.EqualFold(fig, spec.id) {
			continue
		}
		rows, err := experiments.TPCH(experiments.TPCHOptions{
			Multiplier:  spec.mult,
			Seed:        seed,
			Workers:     workers,
			Parallelism: parallel,
		})
		if err != nil {
			return err
		}
		title := fmt.Sprintf("Figure 6(%s) TPC-H ×%d", spec.id[1:], spec.mult)
		if spec.times {
			fmt.Println(experiments.RenderTimes(title, rows))
		} else {
			fmt.Println(experiments.RenderInteractions(title, rows))
		}
	}

	// Figure 7: panel letter → (config index, interactions-or-times).
	panels := map[string]struct {
		cfg   int
		times bool
	}{
		"7a": {0, false}, "7c": {0, true},
		"7b": {1, false}, "7d": {1, true},
		"7e": {2, false}, "7g": {2, true},
		"7f": {3, false}, "7h": {3, true},
		"7i": {4, false}, "7k": {4, true},
		"7j": {5, false}, "7l": {5, true},
	}
	ordered := []string{"7a", "7c", "7b", "7d", "7e", "7g", "7f", "7h", "7i", "7k", "7j", "7l"}
	cache := map[int][]experiments.Row{}
	for _, id := range ordered {
		spec := panels[id]
		if !all && !strings.EqualFold(fig, id) {
			continue
		}
		rows, ok := cache[spec.cfg]
		if !ok {
			var err error
			rows, err = experiments.Synth(experiments.SynthOptions{
				Config:          configs[spec.cfg],
				Runs:            runs,
				Seed:            seed,
				MaxGoalsPerSize: goals,
				Workers:         workers,
				Parallelism:     parallel,
			})
			if err != nil {
				return err
			}
			cache[spec.cfg] = rows
		}
		title := fmt.Sprintf("Figure %s %v", id, configs[spec.cfg])
		if spec.times {
			fmt.Println(experiments.RenderTimes(title, rows))
		} else {
			fmt.Println(experiments.RenderInteractions(title, rows))
		}
	}

	if all || table == "1" {
		rows, err := experiments.Table1(seed, runs, goals, parallel, workers)
		if err != nil {
			return err
		}
		fmt.Println(experiments.RenderTable1(rows))
	} else if table != "" {
		return fmt.Errorf("unknown table %q (only 1 exists)", table)
	}
	if fig != "" && !all {
		if _, ok := panels[strings.ToLower(fig)]; !ok && !strings.HasPrefix(strings.ToLower(fig), "6") {
			return fmt.Errorf("unknown figure %q", fig)
		}
	}
	return nil
}
