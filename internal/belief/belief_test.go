package belief

import (
	"math"
	"testing"
)

func TestNewNormalizes(t *testing.T) {
	for _, threshold := range []float64{0, -3, math.Inf(1), math.NaN()} {
		st := New(threshold, -5)
		if st.Threshold != DefaultThreshold {
			t.Errorf("New(%v, -5).Threshold = %v, want %v", threshold, st.Threshold, DefaultThreshold)
		}
		if st.Budget != 0 {
			t.Errorf("New(%v, -5).Budget = %d, want 0", threshold, st.Budget)
		}
	}
	st := New(2.5, 3)
	if st.Threshold != 2.5 || st.Budget != 3 {
		t.Errorf("New(2.5, 3) = threshold %v budget %d", st.Threshold, st.Budget)
	}
}

func TestSanitizeWeight(t *testing.T) {
	cases := []struct{ in, want float64 }{
		{math.NaN(), 1}, {math.Inf(1), 1}, {math.Inf(-1), 1},
		{-3, 1}, {0, 1}, {2, 2}, {100, maxWeight},
	}
	for _, c := range cases {
		if got := SanitizeWeight(c.in); got != c.want {
			t.Errorf("SanitizeWeight(%v) = %v, want %v", c.in, got, c.want)
		}
	}
}

func TestVoteAndDecided(t *testing.T) {
	st := New(2, 0)
	if _, ok := st.Decided(7); ok {
		t.Fatal("unvoted key decided")
	}
	st.Vote(7, true, 1, "a")
	if _, ok := st.Decided(7); ok {
		t.Fatal("belief 1 cleared threshold 2")
	}
	st.Vote(7, true, 1, "b")
	if pos, ok := st.Decided(7); !ok || !pos {
		t.Fatalf("belief 2 at threshold 2: decided=%v positive=%v", ok, pos)
	}
	if st.Votes != 2 {
		t.Fatalf("Votes = %d, want 2", st.Votes)
	}
	if got := st.Get(7).Net(); got != 2 {
		t.Fatalf("Net = %v, want 2", got)
	}
	if vs := st.VotesFor(7); len(vs) != 2 || vs[0].Worker != "a" || vs[1].Worker != "b" {
		t.Fatalf("VotesFor = %+v", vs)
	}
}

// An exactly balanced belief never decides, regardless of threshold — the
// tie must be broken by more evidence, not by commit order.
func TestZeroNetNeverDecides(t *testing.T) {
	st := New(1, 0)
	st.Vote(3, true, 2, "a")
	st.Vote(3, false, 2, "b")
	if _, ok := st.Decided(3); ok {
		t.Fatal("zero net belief decided")
	}
	st.Vote(3, false, 1, "c")
	if pos, ok := st.Decided(3); !ok || pos {
		t.Fatalf("net -1 at threshold 1: decided=%v positive=%v", ok, pos)
	}
}

func TestResetAndKeys(t *testing.T) {
	st := New(1, 2)
	st.Vote(5, true, 1, "a")
	st.Vote(1, false, 1, "a")
	if got := st.Keys(); len(got) != 2 || got[0] != 1 || got[1] != 5 {
		t.Fatalf("Keys = %v, want [1 5]", got)
	}
	st.Reset(5)
	if b := st.Get(5); b != (Belief{}) {
		t.Fatalf("belief after Reset = %+v", b)
	}
	if vs := st.VotesFor(5); vs != nil {
		t.Fatalf("votes after Reset = %+v", vs)
	}
	if got := st.Keys(); len(got) != 1 || got[0] != 1 {
		t.Fatalf("Keys after Reset = %v, want [1]", got)
	}
}

func TestRemainingSpent(t *testing.T) {
	st := New(1, 2)
	if st.Remaining() != 2 {
		t.Fatalf("Remaining = %d, want 2", st.Remaining())
	}
	st.Spent = 3
	if st.Remaining() != 0 {
		t.Fatalf("overspent Remaining = %d, want 0", st.Remaining())
	}
}

func TestRestore(t *testing.T) {
	st := New(1, 0)
	st.Restore(4, Belief{Pos: 3, Neg: 1}, []VoteRecord{{Worker: "w", Weight: 2, Positive: true}})
	if got := st.Get(4); got.Net() != 2 {
		t.Fatalf("restored Net = %v, want 2", got.Net())
	}
	if vs := st.VotesFor(4); len(vs) != 1 || vs[0].Worker != "w" {
		t.Fatalf("restored votes = %+v", vs)
	}
	if st.Votes != 0 {
		t.Fatalf("Restore bumped Votes to %d", st.Votes)
	}
	st.Restore(9, Belief{}, nil)
	if got := st.Keys(); len(got) != 1 {
		t.Fatalf("empty Restore created a key: %v", got)
	}
}

func TestWeightFromAccuracy(t *testing.T) {
	if got := WeightFromAccuracy(0.5); got != 0 {
		t.Errorf("WeightFromAccuracy(0.5) = %v, want 0", got)
	}
	if got := WeightFromAccuracy(math.NaN()); got != 0 {
		t.Errorf("WeightFromAccuracy(NaN) = %v, want 0", got)
	}
	if got := WeightFromAccuracy(1); got != maxWeight {
		t.Errorf("WeightFromAccuracy(1) = %v, want clamp %v", got, maxWeight)
	}
	if got := WeightFromAccuracy(0); got != -maxWeight {
		t.Errorf("WeightFromAccuracy(0) = %v, want clamp %v", got, -maxWeight)
	}
	if a, b := WeightFromAccuracy(0.7), WeightFromAccuracy(0.9); !(0 < a && a < b) {
		t.Errorf("weights not increasing in accuracy: %v, %v", a, b)
	}
	if got := WeightFromAccuracy(0.2); got >= 0 {
		t.Errorf("below-half accuracy should weigh negative, got %v", got)
	}
}
