package strategy

// The lookahead engine: entropy^K (Section 4.4, Algorithm 5) for every pair
// universe and every depth. Predicates are W = ⌈|Ω|/64⌉-word spans laid out
// in flat []uint64 arenas snapshotted once per decision (per-class thetas,
// base T(S+), the engine's ⊆-maximal base negatives), and a hypothetical
// extension chain lives entirely in the candidate's lookScratch:
//
//   - a positive extension from depth d writes T(S+) ∩ θ into the scratch's
//     d-th W-word T(S+) slot;
//   - a negative extension appends θ's words to the scratch's negative
//     list — the base negatives followed by k reserved spans — so the
//     certainty test scans one contiguous list;
//   - the classes still informative at depth d are listed in the d-th slot
//     of the scratch's rest arena.
//
// An extension from depth d writes only depth-d slots and sibling branches
// run strictly one after the other, so ancestors' slots stay intact and
// steady-state candidate evaluation allocates nothing.
//
// A class labelled along the chain is certain under every later state
// (positive: T(S+) ∩ θ ⊆ θ, Lemma 3.3; negative: T(S+) ∩ θ ⊆ θ, a negative,
// Lemma 3.4), so the chain needs no record of what it labelled: those
// classes drop out of the informative lists by themselves, and delta
// corrects their weight by the chain depth.
//
// Every hypothetical state is a certainty.Kernel over the scratch spans,
// and its two sweeps (Delta, InformativeInto) are the innermost Θ(K) loops
// of the Θ(K³) lookahead (K = informative classes). engine_test.go checks
// the engine against the slice-based reference engine, and
// paperdefs_test.go checks entropy¹ and entropy² against brute force over
// the version space.

import (
	"repro/internal/certainty"
	"repro/internal/inference"
)

// look is the per-decision snapshot shared by the lookahead computations.
// All Uninf differences of Algorithm 5 are taken against the base sample,
// so the snapshot fixes the classes informative under it and their arenas.
type look struct {
	// baseInf: informative class indexes w.r.t. the engine's sample; the
	// engine addresses them by position in this list.
	baseInf []int
	// W is the number of words per predicate span.
	W int
	// base is the engine's kernel: the base T(S+) and ⊆-maximal negatives.
	// It is shared, since the engine does not change during a decision;
	// extensions write scratch spans only.
	base certainty.Kernel
	// thetas holds one W-word span per baseInf position.
	thetas []uint64
	// weights is what making a position certain is worth: its class's
	// tuple count, the paper's unit.
	weights []int64
}

// newLook snapshots the engine's current sample for one decision.
func newLook(e *inference.Engine) *look {
	l := &look{baseInf: e.InformativeClasses(), base: *e.Certainty()}
	l.W = len(l.base.TPos)
	cs := e.Classes()
	l.thetas = make([]uint64, len(l.baseInf)*l.W)
	l.weights = make([]int64, len(l.baseInf))
	for pos, ci := range l.baseInf {
		cs[ci].Theta.Set.CopyWords(l.theta(pos))
		l.weights[pos] = cs[ci].Count
	}
	return l
}

// theta returns the arena span of baseInf position pos's theta.
func (l *look) theta(pos int) []uint64 {
	return l.thetas[pos*l.W : (pos+1)*l.W]
}

// lookScratch is the per-candidate scratch of one depth-k evaluation, sized
// once and reused so steady-state evaluation allocates nothing. Concurrent
// candidate evaluations use distinct scratches (NextCtx pools them).
type lookScratch struct {
	// rest is the per-level informative-position arena: chain depth d
	// (1-based) lists into rest[(d-1)·K : d·K], so a frame's list survives
	// the deeper recursion it drives.
	rest []int32
	// tpos holds k W-word slots for the hypothetical T(S+) after a
	// positive extension from each depth.
	tpos []uint64
	// negs holds the base negatives followed by capacity for the ≤ k
	// negative extensions along a chain.
	negs []uint64
}

// newScratch sizes a scratch for depth-k evaluation.
func (l *look) newScratch(k int) *lookScratch {
	sc := &lookScratch{
		rest: make([]int32, k*len(l.baseInf)),
		tpos: make([]uint64, k*l.W),
		negs: make([]uint64, len(l.base.Negs), len(l.base.Negs)+k*l.W),
	}
	copy(sc.negs, l.base.Negs)
	return sc
}

// hyp is a hypothetical extension of the base sample: its kernel (T(S+) in
// the base arena or a scratch slot, negatives a prefix of the scratch list)
// and the number of classes the chain labelled. It is a small value:
// extensions copy it on the stack and never allocate.
type hyp struct {
	k     certainty.Kernel
	depth int
}

// withPositive labels position pos positive: T(S+) ∩ θ goes into the
// scratch slot of the current depth.
func (l *look) withPositive(s hyp, pos int, sc *lookScratch) hyp {
	dst := sc.tpos[s.depth*l.W : (s.depth+1)*l.W]
	return hyp{k: s.k.WithPositive(dst, l.theta(pos)), depth: s.depth + 1}
}

// withNegative labels position pos negative: θ's words are appended into
// the scratch's reserved negative capacity.
func (l *look) withNegative(s hyp, pos int) hyp {
	return hyp{k: certainty.Kernel{TPos: s.k.TPos, Negs: append(s.k.Negs, l.theta(pos)...)}, depth: s.depth + 1}
}

// delta computes u = |Uninf(S_ext) \ Uninf(S_base)| for the hypothetical
// sample s: the tuples, informative under the base sample, that s makes
// uninformative. Newly labelled tuples themselves are not counted (the
// paper's Figure 5 counts 11, not 12, for the ∅ tuple), but their class
// twins are — hence one less per labelled class, of which there are depth.
func (l *look) delta(s *hyp) int64 {
	return s.k.Delta(l.thetas, l.weights) - int64(s.depth)
}

// entropyAt evaluates baseInf position pos at depth k from the base sample,
// whose negatives are the scratch copy with room for the chain's negative
// extensions.
func (l *look) entropyAt(pos, k int, sc *lookScratch) Entropy {
	return l.entropyK(pos, hyp{k: certainty.Kernel{TPos: l.base.TPos, Negs: sc.negs}}, k, sc)
}

// entropy1 is the entropy of Section 4.4 for position pos, computed in the
// hypothetical sample s (the base sample for plain L1S; for deeper
// lookahead the u counts remain differences against the base sample).
func (l *look) entropy1(pos int, s hyp, sc *lookScratch) Entropy {
	p := l.withPositive(s, pos, sc)
	up := l.delta(&p)
	n := l.withNegative(s, pos)
	un := l.delta(&n)
	if up > un {
		up, un = un, up
	}
	return Entropy{Min: up, Max: un}
}

// entropyK generalizes Algorithm 5 to depth k: the guaranteed information
// from labelling position pos and then k−1 further tuples, pessimistic
// over the user's answers and optimistic over our own future choices.
// k = 2 is exactly the paper's entropy² (Algorithm 5); k = 1 is entropy.
func (l *look) entropyK(pos int, s hyp, k int, sc *lookScratch) Entropy {
	if k <= 1 {
		return l.entropy1(pos, s, sc)
	}
	ep := l.branch(l.withPositive(s, pos, sc), k, sc)
	en := l.branch(l.withNegative(s, pos), k, sc)
	// Lines 13–14: keep the pessimistic branch (smaller Min); on a tie the
	// smaller Max, staying conservative and deterministic.
	if en.Min < ep.Min || (en.Min == ep.Min && en.Max < ep.Max) {
		return en
	}
	return ep
}

// branch is one answer branch of Algorithm 5 lines 3–12: the best
// entropy^(k−1) among the classes still informative under ext, or (∞,∞)
// when none remain. The selection folds selectEntropy's rule (max Min,
// tie-break max Max, first wins) so no entropy slice is materialized.
func (l *look) branch(ext hyp, k int, sc *lookScratch) Entropy {
	K := len(l.baseInf)
	off := (ext.depth - 1) * K
	rest := ext.k.InformativeInto(l.thetas, sc.rest[off:off:off+K])
	if len(rest) == 0 {
		// No informative tuple left: interaction ends (lines 3–5).
		return Entropy{Min: Inf, Max: Inf}
	}
	best := Entropy{Min: -1, Max: -1}
	for _, j := range rest {
		e := l.entropyK(int(j), ext, k-1, sc)
		if e.Min > best.Min || (e.Min == best.Min && e.Max > best.Max) {
			best = e
		}
	}
	return best
}
