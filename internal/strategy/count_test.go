package strategy

import (
	"math/big"
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/inference"
	"repro/internal/paperdata"
	"repro/internal/predicate"
)

// bruteCountConsistent enumerates all θ ⊆ Ω; ground truth for the
// inclusion–exclusion counter.
func bruteCountConsistent(size int, tpos predicate.Pred, negs []predicate.Pred) *big.Int {
	count := 0
	for mask := 0; mask < 1<<uint(size); mask++ {
		var p predicate.Pred
		for b := 0; b < size; b++ {
			if mask&(1<<uint(b)) != 0 {
				p.Set.Add(b)
			}
		}
		if !p.Set.SubsetOf(tpos.Set) {
			continue
		}
		bad := false
		for _, n := range negs {
			if p.Set.SubsetOf(n.Set) {
				bad = true
				break
			}
		}
		if !bad {
			count++
		}
	}
	return big.NewInt(int64(count))
}

func TestCountConsistentEmptySample(t *testing.T) {
	inst := paperdata.Example21()
	u := predicate.NewUniverse(inst)
	got := CountConsistent(predicate.Omega(u), nil)
	if got.Cmp(big.NewInt(64)) != 0 { // 2^6
		t.Errorf("count = %v, want 64", got)
	}
}

func TestCountConsistentWithNegatives(t *testing.T) {
	inst := paperdata.Example21()
	u := predicate.NewUniverse(inst)
	tpos := predicate.Omega(u)
	// One negative with T = ∅: only θ = ∅ is excluded → 63.
	got := CountConsistent(tpos, []predicate.Pred{predicate.Empty()})
	if got.Cmp(big.NewInt(63)) != 0 {
		t.Errorf("count = %v, want 63", got)
	}
}

// TestQuickCountConsistentMatchesBruteForce validates the
// inclusion–exclusion against enumeration on random states.
func TestQuickCountConsistentMatchesBruteForce(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		size := 1 + r.Intn(10)
		randP := func() predicate.Pred {
			var p predicate.Pred
			for b := 0; b < size; b++ {
				if r.Intn(2) == 0 {
					p.Set.Add(b)
				}
			}
			return p
		}
		tpos := randP()
		var negs []predicate.Pred
		for k := 0; k < r.Intn(5); k++ {
			negs = append(negs, randP())
		}
		got := CountConsistent(tpos, negs)
		if got == nil {
			return true // fallback case, permitted
		}
		return got.Cmp(bruteCountConsistent(size, tpos, negs)) == 0
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

// TestHalvingSplitInvariant: for any informative tuple, the predicates
// selecting it plus the predicates rejecting it partition C(S), so the two
// answers to a question split the count exactly.
func TestHalvingSplitInvariant(t *testing.T) {
	inst := paperdata.Example21()
	e := inference.New(inst)
	tpos := e.TPos()
	total := CountConsistent(tpos, nil)
	for _, ci := range e.InformativeClasses() {
		theta := e.Classes()[ci].Theta
		pos := CountConsistent(tpos.Intersect(theta), nil)
		neg := CountConsistent(tpos, []predicate.Pred{theta})
		sum := new(big.Int).Add(pos, neg)
		if sum.Cmp(total) != 0 {
			t.Errorf("class %d: %v + %v ≠ %v", ci, pos, neg, total)
		}
	}
}
