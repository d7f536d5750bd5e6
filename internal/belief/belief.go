// Package belief implements the soft layer of error-tolerant inference:
// log-odds belief accumulation over answered classes, commit thresholds,
// and a bounded retraction budget. The exact version-space engine (package
// inference) stays untouched — a belief State sits in front of it, turning
// a stream of possibly-contradictory weighted votes into the clean labels
// the hard engine accepts, in the spirit of probabilistic answer
// aggregation over unreliable sources (conditioning probabilistic
// databases) rather than raw majority votes.
//
// The companion file banzhaf.go scores how much each committed answer
// contributed to the inferred predicate — an explanation and a
// worker-quality signal in one.
package belief

import (
	"math"
	"sort"
)

// DefaultThreshold is the commit threshold used when a caller passes a
// non-positive one: one unit vote decides a class, which makes the soft
// layer behave exactly like the hard path.
const DefaultThreshold = 1

// maxWeight clamps a single vote's weight (and WeightFromAccuracy's
// output): a log-odds magnitude of ~6.9 corresponds to 99.9% accuracy, and
// anything beyond would let one vote steamroll every budget.
const maxWeight = 6.9

// Belief is the accumulated evidence for one class: Pos and Neg are the
// summed weights of positive and negative votes. The net log-odds belief
// is Pos − Neg.
type Belief struct {
	Pos, Neg float64
}

// Net returns the signed net belief (positive favors a positive label).
func (b Belief) Net() float64 { return b.Pos - b.Neg }

// Abs returns the magnitude of the net belief.
func (b Belief) Abs() float64 { return math.Abs(b.Net()) }

// VoteRecord is one vote as the state remembers it: who cast it, with what
// weight, for which label. Kept per class so commits and retractions can be
// attributed back to workers.
type VoteRecord struct {
	Worker   string
	Weight   float64
	Positive bool
}

// State tracks beliefs for an open-ended set of integer keys (T-class
// indexes for join sessions, row indexes for semijoin sessions). The zero
// value is not ready; build one with New.
type State struct {
	// Threshold is the net belief magnitude at which a class commits.
	Threshold float64
	// Budget is the number of committed answers that may be retracted over
	// the session's lifetime; Spent counts retractions performed.
	Budget, Spent int
	// Votes counts every recorded vote, committed or not — the session's
	// true interaction count.
	Votes int

	m     map[int]*Belief
	votes map[int][]VoteRecord
}

// New returns an empty belief state. A non-positive threshold is normalized
// to DefaultThreshold; a negative budget to 0.
func New(threshold float64, budget int) *State {
	if !(threshold > 0) || math.IsInf(threshold, 1) {
		threshold = DefaultThreshold
	}
	if budget < 0 {
		budget = 0
	}
	return &State{
		Threshold: threshold,
		Budget:    budget,
		m:         make(map[int]*Belief),
		votes:     make(map[int][]VoteRecord),
	}
}

// SanitizeWeight normalizes a caller-supplied vote weight: non-finite or
// non-positive weights become 1 (one unit vote), oversized ones clamp to
// the log-odds ceiling.
func SanitizeWeight(w float64) float64 {
	if math.IsNaN(w) || math.IsInf(w, 0) || w <= 0 {
		return 1
	}
	if w > maxWeight {
		return maxWeight
	}
	return w
}

// Vote records one weighted vote for key and returns the updated belief.
// The weight is sanitized with SanitizeWeight.
func (st *State) Vote(key int, positive bool, weight float64, worker string) Belief {
	w := SanitizeWeight(weight)
	b := st.m[key]
	if b == nil {
		b = &Belief{}
		st.m[key] = b
	}
	if positive {
		b.Pos += w
	} else {
		b.Neg += w
	}
	st.votes[key] = append(st.votes[key], VoteRecord{Worker: worker, Weight: w, Positive: positive})
	st.Votes++
	return *b
}

// Get returns the belief for key (zero if never voted on).
func (st *State) Get(key int) Belief {
	if b := st.m[key]; b != nil {
		return *b
	}
	return Belief{}
}

// Decided reports whether the belief for key clears the commit threshold,
// and which label it commits to. An exactly balanced belief never decides.
func (st *State) Decided(key int) (positive, ok bool) {
	b := st.m[key]
	if b == nil {
		return false, false
	}
	net := b.Net()
	if net == 0 || math.Abs(net) < st.Threshold {
		return false, false
	}
	return net > 0, true
}

// VotesFor returns the recorded votes for key (shared slice; callers must
// not mutate it).
func (st *State) VotesFor(key int) []VoteRecord { return st.votes[key] }

// Reset clears the belief and vote log for key — used when a committed
// answer is retracted (its evidence was judged wrong) or when a pending
// commit is rejected outright (mirroring the hard path's clean rollback).
func (st *State) Reset(key int) {
	delete(st.m, key)
	delete(st.votes, key)
}

// Remaining returns the unspent retraction budget.
func (st *State) Remaining() int {
	if r := st.Budget - st.Spent; r > 0 {
		return r
	}
	return 0
}

// Keys returns every key holding a belief or vote log, ascending —
// deterministic iteration for snapshots.
func (st *State) Keys() []int {
	seen := make(map[int]bool, len(st.m)+len(st.votes))
	for k := range st.m {
		seen[k] = true
	}
	for k := range st.votes {
		seen[k] = true
	}
	keys := make([]int, 0, len(seen))
	for k := range seen {
		keys = append(keys, k)
	}
	sort.Ints(keys)
	return keys
}

// Restore reinstates a belief and vote log for key verbatim (snapshot
// resume). It does not touch the Votes counter — the caller restores that
// from the snapshot's own count.
func (st *State) Restore(key int, b Belief, votes []VoteRecord) {
	if b != (Belief{}) {
		cp := b
		st.m[key] = &cp
	}
	if len(votes) > 0 {
		st.votes[key] = append([]VoteRecord(nil), votes...)
	}
}

// WeightFromAccuracy converts an estimated worker accuracy p into a signed
// log-odds vote weight log(p/(1−p)), clamped to ±maxWeight. Accuracies
// below ½ yield negative weights — such a worker's vote is evidence for
// the opposite label; callers flip the label and use the magnitude.
func WeightFromAccuracy(p float64) float64 {
	if math.IsNaN(p) {
		return 0
	}
	const eps = 1e-3
	if p < eps {
		p = eps
	}
	if p > 1-eps {
		p = 1 - eps
	}
	w := math.Log(p / (1 - p))
	if w > maxWeight {
		return maxWeight
	}
	if w < -maxWeight {
		return -maxWeight
	}
	return w
}
