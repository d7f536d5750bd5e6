package experiments

import (
	"repro/internal/synth"
	"repro/internal/tpch"
	"strings"
	"testing"
)

func TestTPCHAllJoins(t *testing.T) {
	rows, err := TPCH(TPCHOptions{Multiplier: 1, Seed: 42})
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 5 {
		t.Fatalf("got %d rows, want 5", len(rows))
	}
	// The paper's Figure 6(a) numbers as this implementation reproduces
	// them (seed 42): one row per goal join, columns BU, TD, L1S, L2S, RND.
	// Any drift in the engine, a strategy, the loop or RND's seeding shows
	// up here.
	want := [5][5]float64{
		{6, 4, 4, 5, 3},
		{3, 5, 2, 2, 4},
		{6, 18, 4, 7, 10},
		{18, 6, 8, 10, 4},
		{40, 16, 8, 6, 3},
	}
	for ri, r := range rows {
		if len(r.Cells) != 5 {
			t.Errorf("%s: %d strategies, want 5", r.Workload, len(r.Cells))
		}
		for si, name := range StrategyOrder[:5] {
			if got := r.Cells[name].Interactions; got != want[ri][si] {
				t.Errorf("%s/%s: %v interactions, want %v", r.Workload, name, got, want[ri][si])
			}
		}
		for name, c := range r.Cells {
			if c.Seconds < 0 {
				t.Errorf("%s/%s: negative time", r.Workload, name)
			}
		}
		if r.JoinRatio <= 0 {
			t.Errorf("%s: join ratio %v", r.Workload, r.JoinRatio)
		}
	}
	// The size-2 goal (Join 5) must need more interactions than the size-1
	// joins for the deterministic local strategies — the paper's headline
	// shape (RND can get lucky, so it is excluded).
	for _, name := range []string{"BU", "TD"} {
		if rows[4].Cells[name].Interactions <= rows[0].Cells[name].Interactions {
			t.Errorf("%s on Join 5 (%v) should exceed Join 1 (%v)",
				name, rows[4].Cells[name].Interactions, rows[0].Cells[name].Interactions)
		}
	}
}

func TestTPCHSubset(t *testing.T) {
	rows, err := TPCH(TPCHOptions{
		Multiplier: 1,
		Seed:       1,
		Joins:      []tpch.Join{tpch.Join2},
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 1 || len(rows[0].Cells) != 5 {
		t.Fatalf("rows = %+v", rows)
	}
}

func TestSynthSmall(t *testing.T) {
	rows, err := Synth(SynthOptions{
		Config:          synth.Config{AttrsR: 2, AttrsP: 3, Rows: 20, Values: 20},
		Runs:            2,
		Seed:            7,
		MaxGoalsPerSize: 3,
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) == 0 {
		t.Fatal("no rows")
	}
	// Size 0 must exist and BU must need exactly 1 interaction on it.
	var size0 *Row
	for i := range rows {
		if rows[i].GoalSize == 0 {
			size0 = &rows[i]
		}
	}
	if size0 == nil {
		t.Fatal("no size-0 row")
	}
	if c, ok := size0.Cells["BU"]; !ok || c.Interactions != 1 {
		t.Errorf("BU on goal ∅: %+v, want exactly 1 interaction", size0.Cells["BU"])
	}
	// Rows sorted by goal size.
	for i := 1; i < len(rows); i++ {
		if rows[i-1].GoalSize >= rows[i].GoalSize {
			t.Error("rows not ordered by goal size")
		}
	}
}

// TestSynthParallelMatchesSequential: parallel execution must produce
// identical interaction aggregates (timings differ, but the counts and
// metadata are deterministic per seed).
func TestSynthParallelMatchesSequential(t *testing.T) {
	base := SynthOptions{
		Config:          synth.Config{AttrsR: 2, AttrsP: 3, Rows: 20, Values: 20},
		Runs:            4,
		Seed:            5,
		MaxGoalsPerSize: 3,
	}
	seq, err := Synth(base)
	if err != nil {
		t.Fatal(err)
	}
	par := base
	par.Parallelism = 4
	got, err := Synth(par)
	if err != nil {
		t.Fatal(err)
	}
	if len(seq) != len(got) {
		t.Fatalf("row counts differ: %d vs %d", len(seq), len(got))
	}
	for i := range seq {
		if seq[i].GoalSize != got[i].GoalSize || seq[i].JoinRatio != got[i].JoinRatio {
			t.Errorf("row %d metadata differs", i)
		}
		for name, c := range seq[i].Cells {
			pc, ok := got[i].Cells[name]
			if !ok {
				t.Errorf("row %d missing strategy %s in parallel run", i, name)
				continue
			}
			if c.Interactions != pc.Interactions || c.Runs != pc.Runs ||
				c.InteractionsStdDev != pc.InteractionsStdDev {
				t.Errorf("row %d %s: interactions %v/%v runs %d/%d",
					i, name, c.Interactions, pc.Interactions, c.Runs, pc.Runs)
			}
		}
	}
}

func TestBest(t *testing.T) {
	r := Row{Cells: map[string]Cell{
		"BU":  {Interactions: 5, Seconds: 0.001},
		"TD":  {Interactions: 3, Seconds: 0.002},
		"L2S": {Interactions: 3, Seconds: 0.001},
	}}
	name, c := r.Best(StrategyOrder)
	if name != "L2S" || c.Interactions != 3 {
		t.Errorf("Best = %s %+v, want L2S (tie broken by time)", name, c)
	}
	empty := Row{Cells: map[string]Cell{}}
	if name, _ := empty.Best(StrategyOrder); name != "" {
		t.Errorf("Best of empty = %q", name)
	}
}

func TestRenderers(t *testing.T) {
	rows, err := TPCH(TPCHOptions{
		Multiplier: 1,
		Seed:       3,
		Joins:      []tpch.Join{tpch.Join1, tpch.Join2},
	})
	if err != nil {
		t.Fatal(err)
	}
	inter := RenderInteractions("Figure 6(a)", rows)
	if !strings.Contains(inter, "Join 1") || !strings.Contains(inter, "BU") {
		t.Errorf("interactions panel missing content:\n%s", inter)
	}
	times := RenderTimes("Figure 6(c)", rows)
	if !strings.Contains(times, "seconds") {
		t.Errorf("times panel missing header:\n%s", times)
	}
	table := RenderTable1(rows)
	if !strings.Contains(table, "join ratio") || !strings.Contains(table, "int.") {
		t.Errorf("table 1 missing content:\n%s", table)
	}
}

func TestTrimFloat(t *testing.T) {
	if trimFloat(4) != "4" {
		t.Errorf("trimFloat(4) = %q", trimFloat(4))
	}
	if trimFloat(4.25) != "4.25" {
		t.Errorf("trimFloat(4.25) = %q", trimFloat(4.25))
	}
	if trimFloat(4.20) != "4.2" {
		t.Errorf("trimFloat(4.2) = %q", trimFloat(4.2))
	}
}

// TestShapeSize2TDBeatsBU: on a synthetic config, for goals of size ≥ 1,
// TD never needs more interactions than BU (TD prunes the top of the
// lattice first; BU can only match it after positives arrive).
func TestShapeLocalStrategies(t *testing.T) {
	rows, err := Synth(SynthOptions{
		Config:          synth.Config{AttrsR: 3, AttrsP: 3, Rows: 30, Values: 50},
		Runs:            3,
		Seed:            11,
		MaxGoalsPerSize: 5,
	})
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range rows {
		if r.GoalSize == 0 {
			continue
		}
		bu, okB := r.Cells["BU"]
		l2, okL := r.Cells["L2S"]
		if okB && okL && l2.Interactions > bu.Interactions*2+2 {
			t.Errorf("size %d: L2S (%v) wildly worse than BU (%v)",
				r.GoalSize, l2.Interactions, bu.Interactions)
		}
	}
}
