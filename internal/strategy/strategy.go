// Package strategy implements the paper's strategies for choosing which
// tuple the user labels next (Section 4): the random baseline RND, the
// local strategies BU (Algorithm 2) and TD (Algorithm 3), and the
// lookahead skyline strategies L1S (Algorithm 4) and L2S (Algorithms
// 5–6). The exponential minimax-optimal strategy of Section 4.1 lives in
// the package's tests, as a ground-truth oracle on tiny instances.
//
// All strategies operate on T-classes: the engine guarantees that tuples
// with equal T(t) are interchangeable, so "return a tuple" means "return a
// class index" and the engine presents the class representative. The root
// package's Session asks the user, builds its strategy from a StrategyID,
// and checks every pick.
package strategy

import (
	"math/rand"

	"repro/internal/inference"
)

// countingSource wraps a rand.Source64 and counts every draw it serves, so
// a Random strategy's exact stream position can be captured in a session
// snapshot and re-established on resume. Counting source-level draws (not
// Intn calls) is what makes resume bit-identical: one Intn may consume
// several source draws through rejection sampling.
type countingSource struct {
	src rand.Source64
	n   uint64
}

func (c *countingSource) Int63() int64 { c.n++; return c.src.Int63() }

func (c *countingSource) Uint64() uint64 { c.n++; return c.src.Uint64() }

func (c *countingSource) Seed(seed int64) { c.src.Seed(seed); c.n = 0 }

// Random is the RND baseline: it labels a uniformly random informative
// tuple. A seed makes runs reproducible, and the stream position is
// observable (Pos) and restorable (NewRandomAt) so interrupted sessions
// resume with bit-identical draws.
type Random struct {
	rng *rand.Rand
	src *countingSource
}

// NewRandom returns a seeded RND strategy.
func NewRandom(seed int64) *Random { return NewRandomAt(seed, 0) }

// NewRandomAt returns a seeded RND strategy fast-forwarded past the first
// pos source draws: NewRandomAt(seed, r.Pos()) continues the exact stream
// of r. NewRandomAt(seed, 0) is NewRandom(seed).
func NewRandomAt(seed int64, pos uint64) *Random {
	src := &countingSource{src: rand.NewSource(seed).(rand.Source64)}
	r := &Random{rng: rand.New(src), src: src}
	r.SkipTo(pos)
	return r
}

// Pos returns the number of source draws consumed so far.
func (r *Random) Pos() uint64 { return r.src.n }

// SkipTo fast-forwards the source to absolute position pos, so the next
// draw happens exactly where a stream that already consumed pos draws
// would continue. Positions at or behind the current one are a no-op —
// the stream cannot rewind. Serving a memoized pick (which skips the
// live draw) uses this to keep the stream bit-identical to an unmemoized
// session's.
func (r *Random) SkipTo(pos uint64) {
	for r.src.n < pos {
		r.src.src.Int63()
		r.src.n++
	}
}

// Name implements Strategy.
func (r *Random) Name() string { return "RND" }

// Next implements Strategy.
func (r *Random) Next(e *inference.Engine) int {
	inf := e.InformativeClasses()
	if len(inf) == 0 {
		return -1
	}
	return inf[r.rng.Intn(len(inf))]
}

// BottomUp is the BU strategy (Algorithm 2): it navigates the lattice from
// the most general predicate ∅ upward, always asking about an informative
// tuple whose most specific predicate is smallest.
type BottomUp struct{}

// Name implements Strategy.
func (BottomUp) Name() string { return "BU" }

// Next implements Strategy. Classes are kept sorted by ascending |T(t)|, so
// the first informative class realizes the minimum size.
func (BottomUp) Next(e *inference.Engine) int {
	for ci := range e.Classes() {
		if e.Informative(ci) {
			return ci
		}
	}
	return -1
}

// TopDown is the TD strategy (Algorithm 3): while no positive example
// exists it asks about tuples whose most specific predicate is ⊆-maximal
// among all product tuples (descending from Ω); as soon as a positive
// example arrives the goal is known to be non-nullable and TD behaves
// exactly like BU.
type TopDown struct {
	// maximal caches the ⊆-maximal class indexes per engine.
	maximal map[*inference.Engine][]int
}

// NewTopDown returns a TD strategy.
func NewTopDown() *TopDown {
	return &TopDown{maximal: make(map[*inference.Engine][]int)}
}

// Name implements Strategy.
func (t *TopDown) Name() string { return "TD" }

// Next implements Strategy.
func (t *TopDown) Next(e *inference.Engine) int {
	if e.Sample().NumPositive() > 0 {
		return BottomUp{}.Next(e)
	}
	maxes, ok := t.maximal[e]
	if !ok {
		maxes = maximalClasses(e)
		t.maximal[e] = maxes
	}
	for _, ci := range maxes {
		if e.Informative(ci) {
			return ci
		}
	}
	// All maximal classes are labeled or uninformative; any remaining
	// informative class is below a labeled one (cannot happen with the halt
	// condition, but stay safe).
	return BottomUp{}.Next(e)
}

// maximalClasses returns indexes of classes whose predicate is ⊆-maximal
// among all classes, in class order.
func maximalClasses(e *inference.Engine) []int {
	cs := e.Classes()
	var out []int
	for i, c := range cs {
		maximal := true
		for j, d := range cs {
			if i != j && c.Theta.Set.ProperSubsetOf(d.Theta.Set) {
				maximal = false
				break
			}
		}
		if maximal {
			out = append(out, i)
		}
	}
	return out
}
