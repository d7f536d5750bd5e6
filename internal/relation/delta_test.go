package relation

import (
	"errors"
	"testing"
)

func smallInstance(t *testing.T) *Instance {
	t.Helper()
	r := NewRelation(MustSchema("R", "A", "B"))
	r.MustAddTuple("1", "2")
	r.MustAddTuple("3", "4")
	p := NewRelation(MustSchema("P", "C", "D"))
	p.MustAddTuple("1", "5")
	p.MustAddTuple("4", "6")
	return MustInstance(r, p)
}

func TestApplyDeltaVersioning(t *testing.T) {
	v0 := smallInstance(t)
	if v0.Version() != 0 {
		t.Fatalf("fresh instance version = %d, want 0", v0.Version())
	}
	v1, err := v0.InsertRows([]Tuple{{"7", "8"}}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if v1.Version() != 1 {
		t.Fatalf("version after insert = %d, want 1", v1.Version())
	}
	if v0.R.Len() != 2 || v1.R.Len() != 3 {
		t.Fatalf("lengths: v0.R=%d (want 2), v1.R=%d (want 3)", v0.R.Len(), v1.R.Len())
	}
	if v0.LiveR() != 2 || v1.LiveR() != 3 {
		t.Fatalf("live counts: v0=%d v1=%d", v0.LiveR(), v1.LiveR())
	}
	v2, err := v1.DeleteRows([]int{0}, []int{1})
	if err != nil {
		t.Fatal(err)
	}
	if v2.LiveR() != 2 || v2.LiveP() != 1 {
		t.Fatalf("v2 live = (%d, %d), want (2, 1)", v2.LiveR(), v2.LiveP())
	}
	if v2.RAlive(0) || !v2.RAlive(1) || !v2.RAlive(2) {
		t.Fatal("v2 R liveness wrong")
	}
	// Old versions are unaffected.
	if !v1.RAlive(0) || !v1.PAlive(1) {
		t.Fatal("v1 liveness changed by later delta")
	}
	if v2.ProductSize() != 2 {
		t.Fatalf("v2 product size = %d, want 2", v2.ProductSize())
	}

	// Only the tip accepts deltas.
	if _, err := v1.InsertRows(nil, []Tuple{{"9", "9"}}); !errors.Is(err, ErrStaleVersion) {
		t.Fatalf("stale apply error = %v, want ErrStaleVersion", err)
	}
	// The tip still does.
	if _, err := v2.InsertRows(nil, []Tuple{{"9", "9"}}); err != nil {
		t.Fatal(err)
	}
}

func TestApplyDeltaValidation(t *testing.T) {
	v0 := smallInstance(t)
	cases := []Delta{
		{InsertR: []Tuple{{"1"}}},           // wrong arity
		{InsertP: []Tuple{{"1", "2", "3"}}}, // wrong arity
		{DeleteR: []int{5}},                 // out of range
		{DeleteP: []int{-1}},                // out of range
		{DeleteR: []int{0, 0}},              // duplicate
	}
	for i, d := range cases {
		if err := v0.ValidateDelta(d); err == nil {
			t.Errorf("case %d: delta %+v validated, want error", i, d)
		}
		if _, err := v0.ApplyDelta(d); err == nil {
			t.Errorf("case %d: delta %+v accepted, want error", i, d)
		}
	}
	// Validating a good delta never advances the chain: v0 stays the tip.
	if err := v0.ValidateDelta(Delta{DeleteR: []int{0}}); err != nil {
		t.Fatal(err)
	}
	v1, err := v0.DeleteRows([]int{0}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := v0.ValidateDelta(Delta{}); !errors.Is(err, ErrStaleVersion) {
		t.Errorf("stale receiver validated: %v", err)
	}
	if err := v1.ValidateDelta(Delta{DeleteR: []int{0}}); err == nil {
		t.Error("deleting a dead row validated, want error")
	}
	if _, err := v1.DeleteRows([]int{0}, nil); err == nil {
		t.Error("deleting a dead row accepted, want error")
	}
}

// TestRestoreInstanceStartsChain: a restored instance keeps the version and
// tombstones it was given, extends from there, and is a chain of its own.
func TestRestoreInstanceStartsChain(t *testing.T) {
	v0 := smallInstance(t)
	v1, _ := v0.InsertRows([]Tuple{{"7", "8"}}, nil)
	v2, _ := v1.DeleteRows(nil, []int{0})
	if !v0.SameChain(v2) || !v2.SameChain(v1) {
		t.Fatal("versions derived by ApplyDelta are not on one chain")
	}

	// Restore at version 2 with v2's tombstones, then replay forward.
	rest, err := RestoreInstance(v2.R, v2.P, v2.Version(), v2.DeadR(), v2.DeadP())
	if err != nil {
		t.Fatal(err)
	}
	if rest.Version() != 2 || rest.LiveP() != v2.LiveP() {
		t.Fatalf("restored version=%d liveP=%d", rest.Version(), rest.LiveP())
	}
	v3, err := rest.InsertRows(nil, []Tuple{{"5", "5"}})
	if err != nil {
		t.Fatal(err)
	}
	if v3.Version() != 3 || !v3.SameChain(rest) || rest.SameChain(v2) {
		t.Fatalf("restored chain: version %d, same chain as its successor %v, as the original %v",
			v3.Version(), v3.SameChain(rest), rest.SameChain(v2))
	}
	// The original chain's tip is untouched by the restored one.
	if _, err := v2.InsertRows([]Tuple{{"1", "1"}}, nil); err != nil {
		t.Fatal(err)
	}
}
