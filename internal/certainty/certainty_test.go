package certainty

import (
	"math/rand"
	"slices"
	"testing"

	"repro/internal/bitset"
)

// The reference below decides certainty from the paper's definitions
// alone, never through the kernel: a predicate θ′ is consistent with a
// sample iff θ′ ⊆ T(t) for every positive t and θ′ ⊄ T(t′) for every
// negative t′, and a tuple with most specific predicate θ is certainly
// selected (rejected) iff every consistent θ′ selects (rejects) it, that
// is θ′ ⊆ θ (θ′ ⊄ θ). Consistent predicates are subsets of T(S+), so the
// reference enumerates the subsets of a small T(S+) whose bits are spread
// across every word of the universe.

// sampleSets is a sample as plain sets over a universe of n pairs.
type sampleSets struct {
	n          int
	pos, negs  []bitset.Set
	tpos       bitset.Set // ∩ pos, computed with bitset alone
	tposBits   []int
	consistent []bitset.Set // every consistent predicate
}

// randSample draws 1–3 positives, each a core of up to 7 bits spread over
// [0, n) plus up to 3 more, so |T(S+)| ≤ 10; and 0–5 negatives that never
// contain T(S+), so the sample is consistent and the lemmas hold in both
// directions.
func randSample(r *rand.Rand, n int) *sampleSets {
	s := &sampleSets{n: n}
	core := randBits(r, n, 1+r.Intn(7))
	for i := 1 + r.Intn(3); i > 0; i-- {
		s.pos = append(s.pos, core.Union(randBits(r, n, r.Intn(4))))
	}
	s.tpos = bitset.Universe(n)
	for _, p := range s.pos {
		s.tpos.IntersectInPlace(p)
	}
	s.tposBits = s.tpos.Elems()
	for want := r.Intn(6); len(s.negs) < want; {
		neg := s.near(r)
		if !s.tpos.SubsetOf(neg) {
			s.negs = append(s.negs, neg)
		}
	}
	for m := 0; m < 1<<len(s.tposBits); m++ {
		var th bitset.Set
		for b, id := range s.tposBits {
			if m>>b&1 == 1 {
				th.Add(id)
			}
		}
		ok := true
		for _, neg := range s.negs {
			ok = ok && !th.SubsetOf(neg)
		}
		if ok {
			s.consistent = append(s.consistent, th)
		}
	}
	return s
}

// near returns a random set overlapping T(S+): a random part of it plus a
// few bits elsewhere, sometimes all of it, so both lemmas fire often.
func (s *sampleSets) near(r *rand.Rand) bitset.Set {
	var out bitset.Set
	all := r.Intn(4) == 0
	for _, id := range s.tposBits {
		if all || r.Intn(2) == 0 {
			out.Add(id)
		}
	}
	return out.Union(randBits(r, s.n, r.Intn(4)))
}

func randBits(r *rand.Rand, n, k int) bitset.Set {
	var out bitset.Set
	for ; k > 0; k-- {
		out.Add(r.Intn(n))
	}
	return out
}

// certain is the reference: whether every consistent predicate selects a
// tuple with most specific predicate theta, and whether every one rejects it.
func (s *sampleSets) certain(theta bitset.Set) (pos, neg bool) {
	pos, neg = true, true
	for _, th := range s.consistent {
		if th.SubsetOf(theta) {
			neg = false
		} else {
			pos = false
		}
	}
	return pos, neg
}

// kernel builds the sample's kernel through its public maintenance calls.
func (s *sampleSets) kernel() Kernel {
	k := New(bitset.Universe(s.n).Words())
	for _, p := range s.pos {
		k.AddPositive(p.Words())
	}
	for _, neg := range s.negs {
		k.AddNegative(neg.Words())
	}
	return k
}

// widths are universe sizes spanning one, two, three and four words.
var widths = []int{9, 64, 72, 128, 132, 250}

// TestKernelMatchesPaperDefinitions: the single tests, both sweeps and the
// hypothetical extensions agree with the version-space definitions at
// every width, with predicates shorter than the width read as zero-padded.
func TestKernelMatchesPaperDefinitions(t *testing.T) {
	r := rand.New(rand.NewSource(1))
	for _, n := range widths {
		W := len(bitset.Universe(n).Words())
		for trial := 0; trial < 60; trial++ {
			s := randSample(r, n)
			k := s.kernel()
			thetas := make([]bitset.Set, 12)
			arena := make([]uint64, len(thetas)*W)
			weights := make([]int64, len(thetas))
			var wantSum int64
			var wantInf []int32
			for i := range thetas {
				thetas[i] = s.near(r)
				thetas[i].CopyWords(arena[i*W : (i+1)*W])
				weights[i] = 1 + r.Int63n(9)
				pos, neg := s.certain(thetas[i])
				th := thetas[i].Words()
				if k.Positive(th) != pos || k.Negative(th) != neg || k.Certain(th) != (pos || neg) {
					t.Fatalf("n=%d: theta %v under T(S+) %v, negs %v: kernel (%v,%v), definition (%v,%v)",
						n, thetas[i], s.tpos, s.negs, k.Positive(th), k.Negative(th), pos, neg)
				}
				if pos || neg {
					wantSum += weights[i]
				} else {
					wantInf = append(wantInf, int32(i))
				}
			}
			if got := k.Delta(arena, weights); got != wantSum {
				t.Fatalf("n=%d: Delta = %d, definition %d", n, got, wantSum)
			}
			if got := k.InformativeInto(arena, nil); !slices.Equal(got, wantInf) {
				t.Fatalf("n=%d: InformativeInto = %v, definition %v", n, got, wantInf)
			}

			// A hypothetical label equals the sample with that example.
			x := s.near(r)
			withPos := *s
			withPos.pos = append(slices.Clip(s.pos), x)
			withNeg := *s
			withNeg.negs = append(slices.Clip(s.negs), x)
			hp, wantPos := k.WithPositive(nil, x.Words()), withPos.kernel()
			hn, wantNeg := k.WithNegative(nil, x.Words()), withNeg.kernel()
			for _, th := range thetas {
				if hp.Certain(th.Words()) != wantPos.Certain(th.Words()) {
					t.Fatalf("n=%d: WithPositive disagrees with AddPositive on %v", n, th)
				}
				if hn.Certain(th.Words()) != wantNeg.Certain(th.Words()) {
					t.Fatalf("n=%d: WithNegative disagrees with AddNegative on %v", n, th)
				}
			}
		}
	}
}

// TestIncrementalMaximalNegatives: AddNegative keeps exactly the distinct
// ⊆-maximal negatives, and reports a negative as dropped iff an earlier
// one contains it.
func TestIncrementalMaximalNegatives(t *testing.T) {
	r := rand.New(rand.NewSource(2))
	for _, n := range widths {
		W := len(bitset.Universe(n).Words())
		for trial := 0; trial < 100; trial++ {
			s := randSample(r, n)
			k := New(bitset.Universe(n).Words())
			var seen []bitset.Set
			for i := 0; i < 8; i++ {
				neg := s.near(r)
				if r.Intn(4) == 0 && len(seen) > 0 {
					neg = seen[r.Intn(len(seen))].Clone() // duplicates too
				}
				dominated := false
				for _, old := range seen {
					dominated = dominated || neg.SubsetOf(old)
				}
				if k.AddNegative(neg.Words()) == dominated {
					t.Fatalf("n=%d: AddNegative(%v) = %v after %v", n, neg, !dominated, seen)
				}
				seen = append(seen, neg)
			}
			var want []string
			for i, a := range seen {
				maximal := true
				for j, b := range seen {
					if j != i && a.SubsetOf(b) && (j < i || !b.SubsetOf(a)) {
						maximal = false
					}
				}
				if maximal {
					want = append(want, a.Key())
				}
			}
			var got []string
			for off := 0; off < len(k.Negs); off += W {
				var g bitset.Set
				for i, w := range k.Negs[off : off+W] {
					for b := 0; b < 64; b++ {
						if w>>b&1 == 1 {
							g.Add(64*i + b)
						}
					}
				}
				got = append(got, g.Key())
			}
			slices.Sort(want)
			slices.Sort(got)
			if !slices.Equal(got, want) {
				t.Fatalf("n=%d: kept %d negatives, want the %d maximal of %v", n, len(got), len(want), seen)
			}
		}
	}
}

// TestGainIsDeltaDifference: on random T(S+), negatives and thetas at
// one, two and three words, a hypothetical negative x adds exactly Gain to
// Delta — Delta under N ∪ {x} equals Delta under N plus Gain(x) — with
// and without x kept ⊆-maximal. The cases that shortcut the sweep are
// drawn on purpose: no base negatives, x ⊇ T(S+) (every meet is covered),
// x dominated by a base negative and x equal to a kept one (both add
// nothing).
func TestGainIsDeltaDifference(t *testing.T) {
	r := rand.New(rand.NewSource(4))
	for _, W := range []int{1, 2, 3} {
		for trial := 0; trial < 400; trial++ {
			k := Kernel{TPos: randSpan(r, W, 3)}
			if trial%4 != 0 { // every fourth kernel has no negatives
				for range 1 + r.Intn(4) {
					k.AddNegative(randSpan(r, W, 2))
				}
			}
			const K = 24
			thetas := make([]uint64, K*W)
			weights := make([]int64, K)
			for pos := range weights {
				copy(thetas[pos*W:], randSpan(r, W, 2))
				weights[pos] = 1 + r.Int63n(9)
			}
			x := randSpan(r, W, 2)
			n := len(k.Negs) / W
			switch c := r.Intn(5); {
			case c == 0:
				for i := range x {
					x[i] |= k.TPos[i]
				}
			case c == 1 && n > 0: // dominated by a base negative
				for i := range x {
					x[i] &= k.Negs[r.Intn(n)*W+i]
				}
			case c == 2 && n > 0: // a kept negative itself
				off := r.Intn(n) * W
				copy(x, k.Negs[off:off+W])
			}
			gain := k.Gain(thetas, weights, x)
			with := k.WithNegative(nil, x)
			if got, want := k.Delta(thetas, weights)+gain, with.Delta(thetas, weights); got != want {
				t.Fatalf("W=%d: Delta %d + Gain %d = %d; Delta under N ∪ {x} is %d",
					W, got-gain, gain, got, want)
			}
			kept := Kernel{TPos: k.TPos, Negs: slices.Clone(k.Negs)}
			if !kept.AddNegative(x) && gain != 0 {
				t.Fatalf("W=%d: x is dominated by a base negative, yet Gain = %d", W, gain)
			}
			if got, want := k.Delta(thetas, weights)+gain, kept.Delta(thetas, weights); got != want {
				t.Fatalf("W=%d: Delta + Gain = %d; Delta under the ⊆-maximal N ∪ {x} is %d", W, got, want)
			}
		}
	}
}

// randSpan returns a W-word span over a 6-bit slice of each word, with
// each bit set with probability 1/density, so subsets among spans are
// common.
func randSpan(r *rand.Rand, W, density int) []uint64 {
	s := make([]uint64, W)
	for i := range s {
		for b := 0; b < 6; b++ {
			if r.Intn(density) != 0 {
				s[i] |= 1 << (b * 11)
			}
		}
	}
	return s
}

// TestAllocFreeKernel: the single test, the three sweeps and the
// hypothetical extensions on warm buffers allocate nothing, at every width.
func TestAllocFreeKernel(t *testing.T) {
	r := rand.New(rand.NewSource(3))
	for _, n := range widths {
		W := len(bitset.Universe(n).Words())
		s := randSample(r, n)
		k := s.kernel()
		theta := s.near(r).Words()
		arena := make([]uint64, 16*W)
		for i := range arena {
			arena[i] = r.Uint64()
		}
		weights := make([]int64, 16)
		buf := make([]int32, 0, 16)
		hp, hn := k.WithPositive(nil, theta), k.WithNegative(nil, theta)
		allocs := testing.AllocsPerRun(50, func() {
			hp = k.WithPositive(hp.TPos, theta)
			hn = k.WithNegative(hn.Negs, theta)
			k.Certain(theta)
			k.Delta(arena, weights)
			k.Gain(arena, weights, theta)
			buf = k.InformativeInto(arena, buf[:0])
		})
		if allocs != 0 {
			t.Errorf("n=%d: kernel allocates %.1f per run; want 0", n, allocs)
		}
	}
}
