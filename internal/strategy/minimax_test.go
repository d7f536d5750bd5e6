package strategy

import (
	"fmt"

	"repro/internal/certainty"
	"repro/internal/inference"
	"repro/internal/predicate"
)

// Optimal is the minimax strategy of Section 4.1: it minimizes the
// worst-case number of interactions over all goal predicates by exploring
// the full game tree (the standard minimax construction). The paper notes a
// straightforward implementation needs exponential time, "which renders it
// unusable in practice" — it is provided here as a ground-truth oracle for
// testing the efficient strategies on tiny instances, and only tests and
// BenchmarkNextOptimalExample21 use it.
type Optimal struct {
	// MaxClasses bounds the instance size; Next panics beyond it to avoid
	// accidental exponential blow-ups. Zero means DefaultMaxClasses.
	MaxClasses int

	memo map[string]int
}

// DefaultMaxClasses is the largest class count Optimal accepts by default
// (3^14 ≈ 4.8M memo states is still fast; beyond that it gets painful).
const DefaultMaxClasses = 14

// NewOptimal returns a minimax strategy with the default size bound.
func NewOptimal() *Optimal { return &Optimal{} }

// Name implements Strategy.
func (o *Optimal) Name() string { return "OPT" }

// minimaxState mirrors the engine's labeling state for memoization.
type minimaxState struct {
	labels []int8 // 0 unlabeled, 1 positive, 2 negative
}

func (s *minimaxState) key() string {
	b := make([]byte, len(s.labels))
	for i, l := range s.labels {
		b[i] = byte(l)
	}
	return string(b)
}

// Next implements Strategy: it returns an informative class minimizing
// 1 + max over the two answers of the optimal remaining cost.
func (o *Optimal) Next(e *inference.Engine) int {
	st := o.start(e)
	bestCost := -1
	bestIdx := -1
	for _, ci := range o.informative(e, st) {
		cost := 1 + o.worst(e, st, ci)
		if bestCost == -1 || cost < bestCost {
			bestCost = cost
			bestIdx = ci
		}
	}
	return bestIdx
}

// Cost returns the optimal worst-case number of interactions from the
// engine's current state; exposed for tests comparing strategies against
// the optimum.
func (o *Optimal) Cost(e *inference.Engine) int {
	return o.value(e, o.start(e))
}

// start checks the size bound and returns the engine's labeling state.
func (o *Optimal) start(e *inference.Engine) *minimaxState {
	limit := o.MaxClasses
	if limit == 0 {
		limit = DefaultMaxClasses
	}
	if len(e.Classes()) > limit {
		panic(fmt.Sprintf("strategy: Optimal limited to %d classes, instance has %d", limit, len(e.Classes())))
	}
	if o.memo == nil {
		o.memo = make(map[string]int)
	}
	st := &minimaxState{labels: make([]int8, len(e.Classes()))}
	for ci := range st.labels {
		if positive, labeled := e.LabelOf(ci); labeled {
			st.labels[ci] = 2
			if positive {
				st.labels[ci] = 1
			}
		}
	}
	return st
}

// value = 0 if no informative class; else min over informative ci of
// 1 + max over answers of value(child).
func (o *Optimal) value(e *inference.Engine, st *minimaxState) int {
	k := st.key()
	if v, ok := o.memo[k]; ok {
		return v
	}
	inf := o.informative(e, st)
	if len(inf) == 0 {
		o.memo[k] = 0
		return 0
	}
	best := -1
	for _, ci := range inf {
		cost := 1 + o.worst(e, st, ci)
		if best == -1 || cost < best {
			best = cost
		}
	}
	o.memo[k] = best
	return best
}

// worst returns max over the two answers for ci of the optimal cost of the
// resulting state.
func (o *Optimal) worst(e *inference.Engine, st *minimaxState, ci int) int {
	st.labels[ci] = 1
	vp := o.value(e, st)
	st.labels[ci] = 2
	vn := o.value(e, st)
	st.labels[ci] = 0
	if vn > vp {
		return vn
	}
	return vp
}

// informative recomputes the informative classes for a hypothetical
// labeling state on a fresh certainty kernel.
func (o *Optimal) informative(e *inference.Engine, st *minimaxState) []int {
	cs := e.Classes()
	k := certainty.New(predicate.Omega(e.U).Set.Words())
	for ci, l := range st.labels {
		switch l {
		case 1:
			k.AddPositive(cs[ci].Theta.Set.Words())
		case 2:
			k.AddNegative(cs[ci].Theta.Set.Words())
		}
	}
	var out []int
	for ci, l := range st.labels {
		if l == 0 && !k.Certain(cs[ci].Theta.Set.Words()) {
			out = append(out, ci)
		}
	}
	return out
}
