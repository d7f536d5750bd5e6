package strategy

// The lookahead engine: entropy¹ (Algorithm 4) and entropy² (Algorithms
// 5–6) for every pair universe. Predicates are W = ⌈|Ω|/64⌉-word spans
// laid out in flat []uint64 arenas snapshotted once per decision: the
// per-class thetas θₘ, their meets Tₘ = T∩θₘ with the base T = T(S+), and
// the engine's ⊆-maximal base negatives N.
//
// Under the base sample every hypothetical state's certain set depends
// only on lattice nodes below T (Section 4.2). For a node t write
//
//	pos(t) = the weight of the positions certain under (t, N),
//	neg(t) = the weight of {m : Tₘ ⊆ t}.
//
// A base-informative position m is neither below T nor covered by a base
// negative, so under the extra negative θᵢ it is certain iff Tₘ ⊆ θᵢ, that
// is iff Tₘ ⊆ Tᵢ. Hence, with one labelled class per step,
//
//	(i+)       = pos(Tᵢ) − 1          (i−)       = neg(Tᵢ) − 1
//	(i+, j+)   = pos(Tᵢ∩Tⱼ) − 2
//	(i−, j−)   = neg(Tᵢ) + neg(Tⱼ) − neg(Tᵢ∩Tⱼ) − 2
//
// where the last holds because Tₘ ⊆ Tᵢ and Tₘ ⊆ Tⱼ iff Tₘ ⊆ Tᵢ∩Tⱼ. The
// labelled classes themselves are certain under their own extension and
// are counted in these weights, hence the chain depth subtracted: the
// paper's Figure 5 counts 11, not 12, for the ∅ tuple. A mixed leaf adds
// one negative x to a node's state (t, N). That leaves Lemma 3.3 as it is
// and makes certain exactly the positions informative under (t, N) whose
// meet with t is ⊆ x, whose weight is certainty.Kernel.Gain, so
//
//	(i+, j−)   = pos(Tᵢ) + Gain(Tᵢ, θⱼ) − 2      under (Tᵢ, N ∪ {θⱼ})
//	(i−, j+)   = pos(Tⱼ) + Gain(Tⱼ, θᵢ) − 2      under (Tⱼ, N ∪ {θᵢ})
//
// and each costs one Gain sweep, which tests the base negatives only on
// the positions x covers.
//
// So a decision collects the distinct nodes Tᵢ (and, for L2S, Tᵢ∩Tⱼ) into
// one latticeTable, fills each key once with one Delta sweep and one neg
// sweep — in parallel with Workers > 1, since each is a pure function of
// its key — and then reduces the candidates in class order. An L1S
// candidate is two lookups; an L2S candidate is one informative-list
// sweep, lookups for the same-sign leaves and one Gain sweep per mixed
// leaf: about 2K Gain sweeps of K positions (K = informative classes).
//
// engine_test.go checks the engine against the slice-based reference
// engine, and paperdefs_test.go checks entropy¹ and entropy² against
// brute force over the version space.

import (
	"context"
	"sync"

	"repro/internal/certainty"
	"repro/internal/inference"
	"repro/internal/pool"
)

// look is the per-decision snapshot shared by the lookahead computations.
// All Uninf differences of Algorithm 5 are taken against the base sample,
// so the snapshot fixes the classes informative under it and their arenas.
// Looks are pooled with their arenas and table (lookPool), so an idle
// session holds none and a steady-state decision allocates no arena.
type look struct {
	// baseInf: informative class indexes w.r.t. the engine's sample; the
	// engine addresses them by position in this list.
	baseInf []int
	// W is the number of words per predicate span.
	W int
	// base is the engine's kernel: the base T(S+) and ⊆-maximal negatives.
	// It is shared, since the engine does not change during a decision.
	base certainty.Kernel
	// thetas holds one W-word span per baseInf position, meets the span
	// T∩θ of each.
	thetas, meets []uint64
	// weights is what making a position certain is worth: its class's
	// tuple count, the paper's unit.
	weights []int64
	// meetSlot is each position's Tᵢ slot in tab.
	meetSlot []int32
	// tab holds pos and neg of every collected lattice node.
	tab latticeTable
	// key is build's scratch for a pair's lattice node.
	key []uint64
	// ents holds the per-candidate entropies of one decision.
	ents []Entropy
	// scratch lends per-candidate scratches to concurrent evaluations.
	scratch sync.Pool
	// fillFn and entropy2Fn are the bound methods fill and entropy2At,
	// made once per look so that handing them to pool.ForEach allocates
	// nothing.
	fillFn, entropy2Fn func(int)
}

// lookPool recycles looks across decisions and sessions.
var lookPool = sync.Pool{New: func() any {
	l := new(look)
	l.fillFn, l.entropy2Fn = l.fill, l.entropy2At
	return l
}}

// newLook snapshots the engine's current sample for one decision, on a
// pooled look; release returns it.
func newLook(e *inference.Engine) *look {
	return lookPool.Get().(*look).load(e)
}

// load snapshots the engine's current sample into l, reusing its arenas.
func (l *look) load(e *inference.Engine) *look {
	l.baseInf = e.InformativeClasses()
	l.base = *e.Certainty()
	l.W = len(l.base.TPos)
	K, W := len(l.baseInf), l.W
	cs := e.Classes()
	l.thetas = resize(l.thetas, K*W)
	l.meets = resize(l.meets, K*W)
	l.weights = resize(l.weights, K)
	l.meetSlot = resize(l.meetSlot, K)
	l.ents = resize(l.ents, K)
	l.key = resize(l.key, W)
	for pos, ci := range l.baseInf {
		th := l.theta(pos)
		cs[ci].Theta.Set.CopyWords(th)
		m := l.meet(pos)
		for w := range m {
			m[w] = l.base.TPos[w] & th[w]
		}
		l.weights[pos] = cs[ci].Count
	}
	return l
}

// release returns l to the pool; l must not be used afterwards.
func (l *look) release() {
	l.baseInf, l.base = nil, certainty.Kernel{}
	lookPool.Put(l)
}

// resize returns s with length n, reusing its capacity.
func resize[T any](s []T, n int) []T {
	if cap(s) < n {
		return make([]T, n)
	}
	return s[:n]
}

// theta returns the arena span of baseInf position pos's theta.
func (l *look) theta(pos int) []uint64 {
	return l.thetas[pos*l.W : (pos+1)*l.W]
}

// meet returns the arena span of T∩θ for baseInf position pos.
func (l *look) meet(pos int) []uint64 {
	return l.meets[pos*l.W : (pos+1)*l.W]
}

// build collects the lattice nodes the lookahead reads into l.tab — every
// Tᵢ, and every Tᵢ∩Tⱼ when two (L2S) — and fills them on workers
// goroutines.
func (l *look) build(ctx context.Context, two bool, workers int) error {
	K := len(l.baseInf)
	l.tab.reset(l.W, 2*K)
	for i := range K {
		l.tab.insert(l.meet(i))
	}
	if two {
		for i := range K {
			mi := l.meet(i)
			for j := i + 1; j < K; j++ {
				and(l.key, mi, l.meet(j))
				l.tab.insert(l.key)
			}
		}
	}
	// Slots are final once every key is in: growth moves them.
	for i := range K {
		l.meetSlot[i] = l.tab.find(l.meet(i))
	}
	return pool.ForEach(ctx, workers, len(l.tab.slots), l.fillFn)
}

// fill computes pos and neg of the k-th collected key.
func (l *look) fill(k int) {
	s := l.tab.slots[k]
	key := l.tab.keys[int(s)*l.W : int(s+1)*l.W]
	kern := certainty.Kernel{TPos: key, Negs: l.base.Negs}
	l.tab.pos[s] = kern.Delta(l.thetas, l.weights)
	l.tab.neg[s] = l.below(key)
}

// below returns neg(t): the weight of the positions whose meet with T is
// ⊆ t.
func (l *look) below(t []uint64) int64 {
	var sum int64
	if l.W == 1 {
		t0 := t[0]
		for pos, m := range l.meets {
			if m&^t0 == 0 {
				sum += l.weights[pos]
			}
		}
		return sum
	}
	for pos, w := range l.weights {
		if subsetWords(l.meet(pos), t) {
			sum += w
		}
	}
	return sum
}

// and writes a ∩ b into dst.
func and(dst, a, b []uint64) {
	for i, x := range a {
		dst[i] = x & b[i]
	}
}

// subsetWords reports a ⊆ b for spans of equal length.
func subsetWords(a, b []uint64) bool {
	for i, x := range a {
		if x&^b[i] != 0 {
			return false
		}
	}
	return true
}

// leafScratch is the scratch of one entropy² evaluation, sized per
// decision and reused, so candidate evaluation allocates nothing.
// Concurrent evaluations use distinct scratches (look.scratch lends them).
type leafScratch struct {
	// rest lists the positions still informative in a branch.
	rest []int32
	// key holds a lattice node being looked up.
	key []uint64
}

// newScratch returns a scratch fitted to l's decision, reusing a lent one.
func (l *look) newScratch() *leafScratch {
	sc, _ := l.scratch.Get().(*leafScratch)
	if sc == nil {
		sc = new(leafScratch)
	}
	sc.rest = resize(sc.rest, len(l.baseInf))[:0]
	sc.key = resize(sc.key, l.W)
	return sc
}

// entropy2At stores position i's entropy² in l.ents, on a lent scratch.
func (l *look) entropy2At(i int) {
	sc := l.newScratch()
	l.ents[i] = l.entropy2(i, sc)
	l.scratch.Put(sc)
}

// entropy1 is the entropy of Section 4.4 for position i: its positive
// extension makes pos(Tᵢ) − 1 tuples uninformative, its negative one
// neg(Tᵢ) − 1.
func (l *look) entropy1(i int) Entropy {
	s := l.meetSlot[i]
	return order(l.tab.pos[s]-1, l.tab.neg[s]-1)
}

// order returns the entropy of a leaf pair (u+, u−).
func order(up, un int64) Entropy {
	if up > un {
		up, un = un, up
	}
	return Entropy{Min: up, Max: un}
}

// entropy2 is Algorithm 5 for position i: the guaranteed information from
// labelling i and then one further tuple, pessimistic over the user's
// answers and optimistic over our own follow-up. Each branch is the best
// entropy¹ among the positions still informative under it, or (∞,∞) when
// none remain (lines 3–5); the branch with the smaller Min is kept, on a
// tie the smaller Max (lines 13–14).
func (l *look) entropy2(i int, sc *leafScratch) Entropy {
	mi := l.meet(i)
	tab := &l.tab

	// i+: the state (Tᵢ, N).
	ep := Entropy{Min: Inf, Max: Inf}
	ki := certainty.Kernel{TPos: mi, Negs: l.base.Negs}
	rest := ki.InformativeInto(l.thetas, sc.rest[:0])
	if len(rest) > 0 {
		posI := tab.pos[l.meetSlot[i]]
		ep = Entropy{Min: -1, Max: -1}
		for _, j := range rest {
			and(sc.key, mi, l.meet(int(j)))
			up := tab.pos[tab.find(sc.key)] - 2
			un := posI + ki.Gain(l.thetas, l.weights, l.theta(int(j))) - 2
			ep = better(ep, order(up, un))
		}
	}

	// i−: the state (T, N ∪ {θᵢ}); position m stays informative iff
	// Tₘ ⊄ Tᵢ.
	en := Entropy{Min: Inf, Max: Inf}
	rest = l.outside(mi, sc.rest[:0])
	if len(rest) > 0 {
		thI := l.theta(i)
		negI := tab.neg[l.meetSlot[i]]
		en = Entropy{Min: -1, Max: -1}
		for _, j := range rest {
			mj := l.meet(int(j))
			kj := certainty.Kernel{TPos: mj, Negs: l.base.Negs}
			up := tab.pos[l.meetSlot[j]] + kj.Gain(l.thetas, l.weights, thI) - 2
			and(sc.key, mi, mj)
			un := negI + tab.neg[l.meetSlot[j]] - tab.neg[tab.find(sc.key)] - 2
			en = better(en, order(up, un))
		}
	}

	if en.Min < ep.Min || (en.Min == ep.Min && en.Max < ep.Max) {
		return en
	}
	return ep
}

// outside appends to buf the positions whose meet with T is not ⊆ t.
func (l *look) outside(t []uint64, buf []int32) []int32 {
	if l.W == 1 {
		t0 := t[0]
		for pos, m := range l.meets {
			if m&^t0 != 0 {
				buf = append(buf, int32(pos))
			}
		}
		return buf
	}
	for pos := range l.weights {
		if !subsetWords(l.meet(pos), t) {
			buf = append(buf, int32(pos))
		}
	}
	return buf
}
