// Package crowd models the crowdsourcing deployment the paper motivates
// (Section 1 and 7: "our study makes sense in realistic crowdsourcing
// scenarios"): membership questions become paid microtasks answered by
// error-prone workers, and reliability is bought with redundancy —
// each question goes to several workers and the majority label wins.
//
// The package quantifies the money/accuracy trade-off: more workers per
// question cost more but make the aggregated label (and hence the whole
// inference, which is brittle to a single wrong label) exponentially more
// reliable. Majority and Panel only perturb and aggregate a truth label the
// caller supplies; the root package's CrowdOracle and ReliabilityOracle
// wrap them around a truth oracle.
package crowd

import (
	"fmt"
	"math"
	"math/rand"

	"repro/internal/sample"
)

// Majority aggregates a panel of Workers independent noisy workers per
// question into the majority label. Ties (possible only with an even
// worker count) are broken by asking one more worker.
type Majority struct {
	// Workers per question; values < 1 behave as 1.
	Workers int
	// ErrorRate is each worker's independent probability of flipping the
	// correct label; must be in [0, 1).
	ErrorRate float64
	// CostPerTask is the price of one worker answering one question, used
	// by TotalCost.
	CostPerTask float64

	rng *rand.Rand
	// Microtasks counts every individual worker answer.
	Microtasks int
	// Questions counts aggregated questions.
	Questions int
	// WrongAnswers counts aggregated labels that differ from the truth.
	WrongAnswers int

	// rounds accumulates per-worker-round counters: rounds[i] covers the
	// i-th vote cast on each question, so indexes ≥ Workers are tie-breaks.
	rounds []RoundStats
}

// RoundStats is the cost/accuracy breakdown for one worker round — the
// i-th vote position across all questions. The old aggregate counters
// (Microtasks, TotalCost) hid where the money went: a panel of 4 that
// constantly ties pays for a 5th round on most questions, and only a
// per-round breakdown shows it.
type RoundStats struct {
	// Round is the vote position (0-based); positions ≥ the panel size are
	// tie-break rounds.
	Round int `json:"round"`
	// Asked counts questions on which this round was consulted.
	Asked int `json:"asked"`
	// Correct counts this round's votes that matched the true label.
	Correct int `json:"correct"`
	// Cost is Asked · CostPerTask.
	Cost float64 `json:"cost"`
}

// Stats returns the per-worker-round breakdown, one entry per vote
// position that was ever consulted, in round order. The returned slice is
// a copy with costs filled in from the current CostPerTask.
func (m *Majority) Stats() []RoundStats {
	out := make([]RoundStats, len(m.rounds))
	copy(out, m.rounds)
	for i := range out {
		out[i].Cost = float64(out[i].Asked) * m.CostPerTask
	}
	return out
}

// NewMajority builds a majority-vote panel with a seeded generator.
func NewMajority(workers int, errorRate float64, seed int64) (*Majority, error) {
	if errorRate < 0 || errorRate >= 1 {
		return nil, fmt.Errorf("crowd: error rate %v outside [0, 1)", errorRate)
	}
	if workers < 1 {
		workers = 1
	}
	return &Majority{
		Workers:   workers,
		ErrorRate: errorRate,
		rng:       rand.New(rand.NewSource(seed)),
	}, nil
}

// Vote aggregates one crowd round given the true label: Workers
// independent noisy votes, majority wins, ties ask one more worker. It
// updates the running cost/accuracy statistics. The caller resolves the
// truth itself (outside its own locks, as the root package's Crowd does);
// Vote is not safe for concurrent use — the caller serializes rounds.
func (m *Majority) Vote(truth sample.Label) sample.Label {
	m.Questions++
	votesFor, votesAgainst := 0, 0
	round := 0
	ask := func() {
		m.Microtasks++
		for len(m.rounds) <= round {
			m.rounds = append(m.rounds, RoundStats{Round: len(m.rounds)})
		}
		m.rounds[round].Asked++
		if m.rng.Float64() < m.ErrorRate {
			votesAgainst++
		} else {
			votesFor++
			m.rounds[round].Correct++
		}
		round++
	}
	for i := 0; i < m.Workers; i++ {
		ask()
	}
	for votesFor == votesAgainst {
		ask()
	}
	if votesAgainst > votesFor {
		m.WrongAnswers++
		return !truth
	}
	return truth
}

// TotalCost returns Microtasks · CostPerTask.
func (m *Majority) TotalCost() float64 {
	return float64(m.Microtasks) * m.CostPerTask
}

// MajorityErrorRate returns the probability that a majority of k
// independent workers with the given per-worker error rate is wrong
// (counting ties as resolved by an extra worker, i.e. as the k+1 case's
// deciding vote — for odd k the closed form is the binomial tail).
func MajorityErrorRate(k int, errorRate float64) float64 {
	if k < 1 {
		k = 1
	}
	if k%2 == 0 {
		// An even panel plus tie-break behaves like k+1 independent votes.
		k++
	}
	p := errorRate
	wrong := 0.0
	need := k/2 + 1
	for i := need; i <= k; i++ {
		wrong += binomial(k, i) * math.Pow(p, float64(i)) * math.Pow(1-p, float64(k-i))
	}
	return wrong
}

func binomial(n, k int) float64 {
	if k < 0 || k > n {
		return 0
	}
	res := 1.0
	for i := 1; i <= k; i++ {
		res = res * float64(n-k+i) / float64(i)
	}
	return res
}
