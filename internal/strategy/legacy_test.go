package strategy

import (
	"fmt"

	"repro/internal/inference"
	"repro/internal/predicate"
)

// legacyLookahead is the slice-based reference implementation of LkS:
// Algorithm 5 written directly over predicate.Pred values and its own copy
// of Lemmas 3.3 and 3.4 (legacyCertain, independent of the certainty
// kernel), with fresh slices per hypothetical extension and
// an explicit list of the classes each chain labelled. It is slow and
// plain on purpose — the differential tests and BenchmarkColdPath compare
// the arena engine against it.
type legacyLookahead struct {
	K int
}

func (s legacyLookahead) Name() string { return fmt.Sprintf("legacy-L%dS", s.K) }

// Entropies returns the entropy^K of every informative class, keyed by
// class index.
func (s legacyLookahead) Entropies(e *inference.Engine) map[int]Entropy {
	lg := newLegacy(e)
	base := lg.baseState()
	out := make(map[int]Entropy, len(lg.baseInf))
	for _, ci := range lg.baseInf {
		out[ci] = lg.entropyK(ci, base, max(1, s.K))
	}
	return out
}

func (s legacyLookahead) Next(e *inference.Engine) int {
	lg := newLegacy(e)
	base := lg.baseState()
	best := Entropy{Min: -1, Max: -1}
	bestIdx := -1
	for _, ci := range lg.baseInf {
		ent := lg.entropyK(ci, base, max(1, s.K))
		if ent.Min > best.Min || (ent.Min == best.Min && ent.Max > best.Max) {
			best = ent
			bestIdx = ci
		}
	}
	return bestIdx
}

// legacy is the reference engine's per-decision context: the engine and
// the classes informative under the base sample.
type legacy struct {
	e       *inference.Engine
	baseInf []int
}

func newLegacy(e *inference.Engine) *legacy {
	return &legacy{e: e, baseInf: e.InformativeClasses()}
}

// state is a hypothetical extension of the base sample: the updated T(S+),
// the extended negative list, and which classes the extension labeled.
type state struct {
	tpos  predicate.Pred
	negs  []predicate.Pred
	newly []int
}

func (s state) withPositive(theta predicate.Pred, ci int) state {
	return state{
		tpos:  s.tpos.Intersect(theta),
		negs:  s.negs,
		newly: append(append([]int(nil), s.newly...), ci),
	}
}

func (s state) withNegative(theta predicate.Pred, ci int) state {
	negs := make([]predicate.Pred, len(s.negs), len(s.negs)+1)
	copy(negs, s.negs)
	return state{
		tpos:  s.tpos,
		negs:  append(negs, theta),
		newly: append(append([]int(nil), s.newly...), ci),
	}
}

func (s state) labeled(ci int) bool {
	for _, x := range s.newly {
		if x == ci {
			return true
		}
	}
	return false
}

func (l *legacy) baseState() state {
	return state{tpos: l.e.TPos(), negs: l.e.Sample().Negatives()}
}

// legacyCertain is the Theorem 3.5 test over predicate values: Lemma 3.3
// (T(S+) ⊆ θ) or Lemma 3.4 (T(S+) ∩ θ ⊆ some negative), scanning every
// negative.
func legacyCertain(tpos predicate.Pred, negs []predicate.Pred, theta predicate.Pred) bool {
	if tpos.MoreGeneralThan(theta) {
		return true
	}
	inter := tpos.Intersect(theta)
	for _, n := range negs {
		if inter.MoreGeneralThan(n) {
			return true
		}
	}
	return false
}

// delta computes u = |Uninf(S_ext) \ Uninf(S_base)| for the hypothetical
// state: the number of tuples, informative under the base sample, that the
// extension makes uninformative. Newly labeled tuples themselves are not
// counted (the paper's Figure 5 counts 11, not 12, for the ∅ tuple), but
// their class twins are.
func (l *legacy) delta(s state) int64 {
	var sum int64
	for _, ci := range l.baseInf {
		c := l.e.Classes()[ci]
		if s.labeled(ci) {
			sum += c.Count - 1
			continue
		}
		if legacyCertain(s.tpos, s.negs, c.Theta) {
			sum += c.Count
		}
	}
	return sum
}

// informativeUnder returns the base-informative classes still informative
// under the hypothetical state.
func (l *legacy) informativeUnder(s state) []int {
	var out []int
	for _, ci := range l.baseInf {
		if s.labeled(ci) {
			continue
		}
		if !legacyCertain(s.tpos, s.negs, l.e.Classes()[ci].Theta) {
			out = append(out, ci)
		}
	}
	return out
}

// entropy1 is the entropy of Section 4.4 for class ci in state s.
func (l *legacy) entropy1(ci int, s state) Entropy {
	theta := l.e.Classes()[ci].Theta
	up := l.delta(s.withPositive(theta, ci))
	un := l.delta(s.withNegative(theta, ci))
	if up > un {
		up, un = un, up
	}
	return Entropy{Min: up, Max: un}
}

// entropyK is Algorithm 5 generalized to depth k.
func (l *legacy) entropyK(ci int, s state, k int) Entropy {
	if k <= 1 {
		return l.entropy1(ci, s)
	}
	theta := l.e.Classes()[ci].Theta
	branch := func(ext state) Entropy {
		rest := l.informativeUnder(ext)
		if len(rest) == 0 {
			// No informative tuple left: interaction ends (lines 3–5).
			return Entropy{Min: Inf, Max: Inf}
		}
		E := make([]Entropy, 0, len(rest))
		for _, cj := range rest {
			E = append(E, l.entropyK(cj, ext, k-1))
		}
		best := Entropy{Min: -1, Max: -1}
		for _, e := range E {
			if e.Min > best.Min || (e.Min == best.Min && e.Max > best.Max) {
				best = e
			}
		}
		return best
	}
	ep := branch(s.withPositive(theta, ci))
	en := branch(s.withNegative(theta, ci))
	// Lines 13–14: keep the pessimistic branch (smaller Min); on a tie the
	// smaller Max, staying conservative and deterministic.
	if en.Min < ep.Min || (en.Min == ep.Min && en.Max < ep.Max) {
		return en
	}
	return ep
}
