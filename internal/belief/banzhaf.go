package belief

import (
	"math/rand"
	"slices"

	"repro/internal/certainty"
	"repro/internal/predicate"
)

// LabeledPred is one committed answer as the attribution module sees it:
// the most specific predicate of the answered class (or row) and the
// committed label.
type LabeledPred struct {
	Theta    predicate.Pred
	Positive bool
}

// exactAttributionMax bounds the coalition count for exact Banzhaf
// enumeration: with n−1 other answers the exact score averages over
// 2^(n−1) coalitions, so 12 caps the work at 4096 outcome evaluations per
// answer. Larger transcripts fall back to seeded Monte-Carlo sampling.
const exactAttributionMax = 12

// attributionSamples is the Monte-Carlo sample count per answer when exact
// enumeration is too expensive. 128 coalitions resolves scores to ~0.008
// granularity — plenty to rank answers and spot dead weight.
const attributionSamples = 128

// Attribution computes a Banzhaf-style contribution score for each answer:
// the fraction of coalitions of the *other* answers whose inferred outcome
// changes when this answer joins. An answer whose removal never changes
// what the version space concludes scores 0; an answer that alone pins the
// result scores 1. classThetas are the most specific predicates of every
// T-class (used to count settled classes in the outcome signature); u is
// the pair universe. The computation is deterministic: the Monte-Carlo
// fallback derives its stream from seed alone.
func Attribution(u *predicate.Universe, classThetas []predicate.Pred, answers []LabeledPred, seed int64) []float64 {
	n := len(answers)
	scores := make([]float64, n)
	if n == 0 {
		return scores
	}
	ev := newOutcomeEval(u, classThetas, answers)
	in := make([]bool, n)
	if n-1 <= exactAttributionMax {
		coalitions := 1 << (n - 1)
		for i := range answers {
			flips := 0
			for mask := 0; mask < coalitions; mask++ {
				// Spread mask's n−1 bits over the answers other than i.
				b := 0
				for j := range in {
					if j != i {
						in[j] = mask>>b&1 == 1
						b++
					}
				}
				if ev.flips(i, in) {
					flips++
				}
			}
			scores[i] = float64(flips) / float64(coalitions)
		}
		return scores
	}
	rng := rand.New(rand.NewSource(seed))
	for i := range answers {
		flips := 0
		for s := 0; s < attributionSamples; s++ {
			for j := range in {
				in[j] = j != i && rng.Intn(2) == 1
			}
			if ev.flips(i, in) {
				flips++
			}
		}
		scores[i] = float64(flips) / float64(attributionSamples)
	}
	return scores
}

// outcomeEval evaluates the version-space outcome of an answer coalition,
// given as a membership flag per answer, on a reused certainty kernel.
type outcomeEval struct {
	omega       []uint64
	classThetas []predicate.Pred
	answers     []LabeledPred
	k           certainty.Kernel
	tpos        []uint64
}

func newOutcomeEval(u *predicate.Universe, classThetas []predicate.Pred, answers []LabeledPred) *outcomeEval {
	omega := predicate.Omega(u).Set.Words()
	return &outcomeEval{omega: omega, classThetas: classThetas, answers: answers, k: certainty.New(omega)}
}

// flips reports whether answer i changes the outcome of the coalition of
// the other answers marked in in (in[i] is ignored).
func (ev *outcomeEval) flips(i int, in []bool) bool {
	in[i] = false
	without := ev.outcome(in)
	ev.tpos = append(ev.tpos[:0], ev.k.TPos...)
	in[i] = true
	return ev.outcome(in) != without || !slices.Equal(ev.tpos, ev.k.TPos)
}

// outcome evaluates the coalition marked in in and returns the number of
// classes certain under Lemmas 3.3/3.4, leaving its T(S+) in ev.k. Two
// coalitions with equal T(S+) and equal counts conclude the same facts
// about every tuple, so an answer flips the outcome iff it changes either.
func (ev *outcomeEval) outcome(in []bool) int {
	copy(ev.k.TPos, ev.omega)
	ev.k.Negs = ev.k.Negs[:0]
	for j, a := range ev.answers {
		if !in[j] {
			continue
		}
		if a.Positive {
			ev.k.AddPositive(a.Theta.Set.Words())
		} else {
			ev.k.AddNegative(a.Theta.Set.Words())
		}
	}
	settled := 0
	for _, theta := range ev.classThetas {
		if ev.k.Certain(theta.Set.Words()) {
			settled++
		}
	}
	return settled
}

// DropOneCritical reports, for each answer, whether removing just that
// answer (keeping all others) changes the outcome — the cheapest useful
// explanation for large transcripts, and the semijoin criticality test.
func DropOneCritical(u *predicate.Universe, classThetas []predicate.Pred, answers []LabeledPred) []bool {
	crit := make([]bool, len(answers))
	ev := newOutcomeEval(u, classThetas, answers)
	in := make([]bool, len(answers))
	for j := range in {
		in[j] = true
	}
	for i := range in {
		crit[i] = ev.flips(i, in) // leaves in[i] set
	}
	return crit
}
