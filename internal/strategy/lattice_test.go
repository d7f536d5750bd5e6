package strategy

import (
	"context"
	"math/rand"
	"slices"
	"testing"

	"repro/internal/certainty"
	"repro/internal/inference"
	"repro/internal/paperdata"
	"repro/internal/sample"
)

// randKey returns a random w-word key.
func randKey(r *rand.Rand, w int) []uint64 {
	k := make([]uint64, w)
	for i := range k {
		k[i] = r.Uint64()
	}
	return k
}

// TestLatticeTableCollisions: keys sharing a home slot each get their own
// slot and are found again, and an absent key on the same probe sequence
// is not found, at W = 1, 2 and 3.
func TestLatticeTableCollisions(t *testing.T) {
	r := rand.New(rand.NewSource(1))
	for _, w := range []int{1, 2, 3} {
		var tab latticeTable
		tab.reset(w, 4)
		// Four keys with one home slot, and a fifth that is not inserted.
		var same [][]uint64
		home := -1
		for len(same) < 5 {
			k := randKey(r, w)
			if h := tab.home(k); home < 0 || h == home {
				home = h
				same = append(same, k)
			}
		}
		slots := map[int32]bool{}
		for i, k := range same[:4] {
			s := tab.insert(k)
			if slots[s] {
				t.Fatalf("w=%d: colliding key %d shares slot %d", w, i, s)
			}
			slots[s] = true
			tab.pos[s], tab.neg[s] = int64(i), int64(-i)
		}
		for i, k := range same[:4] {
			s := tab.find(k)
			if s < 0 || tab.pos[s] != int64(i) || tab.neg[s] != int64(-i) {
				t.Fatalf("w=%d: colliding key %d found at slot %d", w, i, s)
			}
			if tab.insert(k) != s {
				t.Fatalf("w=%d: re-inserting key %d moved it", w, i)
			}
		}
		if s := tab.find(same[4]); s >= 0 {
			t.Fatalf("w=%d: an absent colliding key was found at slot %d", w, s)
		}
		if len(tab.slots) != 4 {
			t.Fatalf("w=%d: %d keys listed, want 4", w, len(tab.slots))
		}
	}
}

// TestLatticeTableGrowth: inserting past half the first size grows the
// table; every key keeps its weights and the insertion order survives.
func TestLatticeTableGrowth(t *testing.T) {
	r := rand.New(rand.NewSource(2))
	for _, w := range []int{1, 2, 3} {
		var tab latticeTable
		tab.reset(w, 1)
		first := len(tab.stamp)
		const n = 200
		keys := make([][]uint64, n)
		for i := range keys {
			keys[i] = randKey(r, w)
			s := tab.insert(keys[i])
			tab.pos[s], tab.neg[s] = int64(i), int64(2*i)
		}
		if len(tab.stamp) <= first || 2*n > len(tab.stamp) {
			t.Fatalf("w=%d: %d slots for %d keys (first size %d)", w, len(tab.stamp), n, first)
		}
		for i, k := range keys {
			s := tab.find(k)
			if s < 0 || tab.pos[s] != int64(i) || tab.neg[s] != int64(2*i) {
				t.Fatalf("w=%d: key %d lost its weights after growth", w, i)
			}
			if tab.slots[i] != s {
				t.Fatalf("w=%d: key %d listed out of insertion order", w, i)
			}
		}
	}
}

// TestLatticeTableResetForgets: after a reset, no key of the earlier
// decision is found, and re-inserting it lists it again for a fresh fill,
// at every width the table is reused with.
func TestLatticeTableResetForgets(t *testing.T) {
	r := rand.New(rand.NewSource(3))
	var tab latticeTable
	for _, w := range []int{1, 2, 3, 1} {
		tab.reset(w, 8)
		k := randKey(r, w)
		s := tab.insert(k)
		tab.pos[s], tab.neg[s] = 7, 9
		tab.reset(w, 8)
		if got := tab.find(k); got >= 0 {
			t.Fatalf("w=%d: a key of the earlier decision is found at slot %d", w, got)
		}
		s = tab.insert(k)
		if !slices.Equal(tab.slots, []int32{s}) {
			t.Fatalf("w=%d: re-inserted key listed as %v, want [%d]", w, tab.slots, s)
		}
	}
	// A wrapped generation counter clears every stamp.
	tab.reset(1, 8)
	k := []uint64{42}
	tab.insert(k)
	tab.gen = ^uint32(0)
	tab.stamp[tab.slots[0]] = tab.gen
	tab.reset(1, 8)
	if got := tab.find(k); got >= 0 {
		t.Fatalf("after the stamps wrapped, a stale key is found at slot %d", got)
	}
}

// TestLookReuseAcrossNegatives: one look serves two decisions whose lattice
// nodes are equal (no positive, so T = Ω) but whose negatives differ; the
// second decision reads no pos or neg of the first, and its entropies equal
// the legacy engine's.
func TestLookReuseAcrossNegatives(t *testing.T) {
	inst := paperdata.Example21()
	a, b := inference.New(inst), inference.New(inst)
	if err := a.Label(a.InformativeClasses()[0], sample.Negative); err != nil {
		t.Fatal(err)
	}
	inf := b.InformativeClasses()
	if err := b.Label(inf[len(inf)-1], sample.Negative); err != nil {
		t.Fatal(err)
	}
	lk := new(look)
	lk.fillFn, lk.entropy2Fn = lk.fill, lk.entropy2At
	for _, e := range []*inference.Engine{a, b, a} {
		lk.load(e)
		if err := L2S(1).evaluate(context.Background(), lk); err != nil {
			t.Fatal(err)
		}
		for _, s := range lk.tab.slots {
			key := lk.tab.keys[int(s)*lk.W : int(s+1)*lk.W]
			kern := certainty.Kernel{TPos: key, Negs: lk.base.Negs}
			if lk.tab.pos[s] != kern.Delta(lk.thetas, lk.weights) || lk.tab.neg[s] != lk.below(key) {
				t.Fatalf("key %x holds a stale pos or neg", key)
			}
		}
		want := legacyLookahead{K: 2}.Entropies(e)
		for pos, ci := range lk.baseInf {
			if lk.ents[pos] != want[ci] {
				t.Fatalf("class %d: reused look %v, legacy %v", ci, lk.ents[pos], want[ci])
			}
		}
	}
}
