package strategy

import (
	"math"
	"sort"
)

// Inf is the entropy value meaning "labeling this tuple ends the
// interaction regardless of further answers" (the (∞,∞) of Algorithm 5).
const Inf int64 = math.MaxInt64

// Entropy is the pair (min(u+,u−), max(u+,u−)) of Section 4.4: the
// guaranteed and optimistic number of tuples that become uninformative when
// the tuple is labeled.
type Entropy struct {
	Min, Max int64
}

// Dominates reports the paper's domination order: e dominates o iff both
// components are ≥.
func (e Entropy) Dominates(o Entropy) bool {
	return e.Min >= o.Min && e.Max >= o.Max
}

// Skyline returns the entropies not dominated by a different entropy value
// in E (duplicates collapse to one representative), ordered by descending
// Min. Sort-then-sweep: after ordering by (Min desc, Max desc), an entry
// survives iff its Max strictly exceeds every earlier entry's — any earlier
// entry has Min ≥ e.Min, so Max ≤ the running maximum means e is dominated
// (or a duplicate of the entry realizing it). O(n log n) instead of the
// former all-pairs O(n²) scan; skyline_test.go checks it differentially
// against that implementation.
func Skyline(E []Entropy) []Entropy {
	if len(E) == 0 {
		return nil
	}
	sorted := make([]Entropy, len(E))
	copy(sorted, E)
	sort.Slice(sorted, func(a, b int) bool {
		if sorted[a].Min != sorted[b].Min {
			return sorted[a].Min > sorted[b].Min
		}
		return sorted[a].Max > sorted[b].Max
	})
	out := sorted[:0]
	bestMax := int64(-1)
	for _, e := range sorted {
		if e.Max > bestMax {
			out = append(out, e)
			bestMax = e.Max
		}
	}
	return out
}

// better implements the choice of Algorithms 4 and 6 over a running best:
// the entry with the maximal Min, among those the one with the largest Max
// (the skyline entry at that Min), the first on a tie.
func better(best, e Entropy) Entropy {
	if e.Min > best.Min || (e.Min == best.Min && e.Max > best.Max) {
		return e
	}
	return best
}

// selectBest applies better's selection over per-candidate entropies and
// returns the winning class index: ents[pos] is the entropy of baseInf
// position pos. Positions are in class order, so the first class wins
// ties — the serial tie-breaking rule, which is what keeps parallel
// evaluation bit-identical to serial runs. Returns -1 for an empty
// candidate set.
func selectBest(baseInf []int, ents []Entropy) int {
	bestIdx := -1
	best := Entropy{Min: -1, Max: -1}
	for pos, e := range ents {
		if b := better(best, e); b != best {
			best, bestIdx = b, baseInf[pos]
		}
	}
	return bestIdx
}
