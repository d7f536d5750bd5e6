package joininference

import (
	"context"
	"fmt"
	"sync"

	"repro/internal/belief"
	"repro/internal/crowd"
)

// Oracle answers membership questions: the user of the interactive
// scenario (Section 3.2), a simulation of one, or a crowd of paid workers
// (Section 7). The same oracle drives join and semijoin sessions — a
// semijoin question has PIndex -1 (see Question.Semijoin).
type Oracle interface {
	// Label answers one question. Returning an error aborts the run (e.g.
	// a crowd platform timeout); honest errors are wrapped and surfaced by
	// Run.
	Label(ctx context.Context, q Question) (Label, error)
}

// HonestOracle answers every question exactly as the goal predicate
// dictates: the honest user of Section 3.2. It serves join questions
// (positive iff θG ⊆ T(t)) and semijoin questions (positive iff some P row
// joins under θG).
func HonestOracle(goal Pred) Oracle { return honestOracle{goal: goal} }

type honestOracle struct{ goal Pred }

func (h honestOracle) Label(_ context.Context, q Question) (Label, error) {
	if q.u == nil {
		return Negative, fmt.Errorf("joininference: question was not produced by a session")
	}
	if q.Semijoin() {
		for _, tP := range q.inst.P.Tuples {
			if h.goal.Selects(q.u, q.RTuple, tP) {
				return Positive, nil
			}
		}
		return Negative, nil
	}
	if h.goal.Selects(q.u, q.RTuple, q.PTuple) {
		return Positive, nil
	}
	return Negative, nil
}

// FuncOracle adapts a plain labeling function (e.g. a UI prompt or a test
// script) to the Oracle interface.
func FuncOracle(f func(Question) Label) Oracle { return funcOracle(f) }

type funcOracle func(Question) Label

func (f funcOracle) Label(_ context.Context, q Question) (Label, error) { return f(q), nil }

// Crowd is an Oracle that simulates the crowdsourcing deployment of
// Section 7: each question fans out to several independent error-prone
// workers and the majority label wins (ties ask one more worker). It wraps
// a truth oracle whose labels the workers perturb, and keeps running
// cost/accuracy statistics.
type Crowd struct {
	truth Oracle
	mu    sync.Mutex
	m     *crowd.Majority
}

// CrowdOracle builds a majority-vote crowd over the truth oracle: workers
// independent answers per question, each wrong with probability errorRate,
// each costing costPerTask. The seed makes worker noise reproducible for a
// fixed dispatch order.
func CrowdOracle(truth Oracle, workers int, errorRate, costPerTask float64, seed int64) (*Crowd, error) {
	m, err := crowd.NewMajority(workers, errorRate, seed)
	if err != nil {
		return nil, fmt.Errorf("joininference: %w", err)
	}
	m.CostPerTask = costPerTask
	return &Crowd{truth: truth, m: m}, nil
}

// Label implements Oracle with one majority-aggregated crowd round. The
// truth oracle answers the exact question it is handed, outside the mutex,
// so a parallel batch dispatch only serializes on the cheap vote
// aggregation — not on the truth oracle's latency. Concurrent use is safe
// provided the truth oracle is itself safe for concurrent use
// (HonestOracle is; a FuncOracle over shared mutable state is the caller's
// responsibility to lock). Aggregated label sequences stay reproducible
// for a fixed dispatch order; concurrent dispatch keeps every count exact
// but lets the scheduler decide which question consumes which noise draw.
func (c *Crowd) Label(ctx context.Context, q Question) (Label, error) {
	truth, err := c.truth.Label(ctx, q)
	if err != nil {
		return truth, err
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.m.Vote(truth), nil
}

// Microtasks returns the number of individual worker answers so far.
func (c *Crowd) Microtasks() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.m.Microtasks
}

// Questions returns the number of aggregated questions answered.
func (c *Crowd) Questions() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.m.Questions
}

// WrongAnswers returns how many aggregated labels differed from the truth.
func (c *Crowd) WrongAnswers() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.m.WrongAnswers
}

// TotalCost returns Microtasks · costPerTask.
func (c *Crowd) TotalCost() float64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.m.TotalCost()
}

// CrowdErrorRate returns the probability that a majority of `workers`
// independent workers, each wrong with probability errorRate, aggregates to
// the wrong label (ties resolved by an extra worker).
func CrowdErrorRate(workers int, errorRate float64) float64 {
	return crowd.MajorityErrorRate(workers, errorRate)
}

// LabeledVote is one worker's answer to a question, with its provenance.
type LabeledVote struct {
	Label Label
	Vote  Vote
}

// VoteOracle is an Oracle that can also expose the individual worker votes
// behind an answer, for soft sessions that aggregate evidence themselves
// (AnswerVote). Run uses Votes automatically when the session is soft.
type VoteOracle interface {
	Oracle
	// Votes answers one question with a round of per-worker votes. Weights
	// already encode each worker's estimated reliability (and adversarial
	// workers' labels arrive pre-flipped when the estimate says to).
	Votes(ctx context.Context, q Question) ([]LabeledVote, error)
}

// WorkerSpec describes one simulated crowd worker for ReliabilityOracle.
type WorkerSpec struct {
	// ID names the worker in votes, events, and reliability reports.
	ID string
	// ErrorRate is the probability of flipping the correct label while
	// behaving; must be in [0, 1].
	ErrorRate float64
	// Adversarial inverts the behavior: the worker answers wrong with
	// probability 1−ErrorRate — a reliable liar, which a signed
	// reliability weight learns to invert into a truth source.
	Adversarial bool
	// SleeperAfter, when positive, turns the worker adversarial after that
	// many answered microtasks.
	SleeperAfter int
}

// WorkerReliability is one worker's learned reliability estimate.
type WorkerReliability struct {
	Worker string `json:"worker"`
	// Accuracy is the posterior-mean accuracy estimate in [0, 1].
	Accuracy float64 `json:"accuracy"`
	// Correct and Wrong are the graded-answer counts behind the estimate.
	Correct int `json:"correct"`
	Wrong   int `json:"wrong"`
}

// ReliabilityCrowd simulates a roster of named workers with individual
// error profiles and learns a Beta-posterior accuracy per worker from
// downstream agreement (commit and retraction events, fed back by Run via
// Absorb). Votes are weighted by the learned log-odds reliability; a
// worker graded below ½ accuracy gets its label flipped — an adversarial
// worker becomes a truth source once caught.
type ReliabilityCrowd struct {
	truth Oracle

	mu    sync.Mutex
	panel *crowd.Panel
	rel   crowd.Reliability
	// raw logs each worker's unflipped answers per question, so grading
	// measures the worker's own accuracy, not the flipped signal.
	raw map[QuestionRef]map[string]Label
}

// ReliabilityOracle builds a reliability-weighted crowd over the truth
// oracle: perQuestion workers from the roster answer each round (assigned
// round-robin), each costing costPerTask. Workers start from an optimistic
// accuracy prior and earn (or lose) vote weight as commits and retractions
// grade their answers.
func ReliabilityOracle(truth Oracle, workers []WorkerSpec, perQuestion int, costPerTask float64, seed int64) (*ReliabilityCrowd, error) {
	specs := make([]crowd.WorkerSpec, len(workers))
	for i, w := range workers {
		specs[i] = crowd.WorkerSpec{ID: w.ID, ErrorRate: w.ErrorRate, Adversarial: w.Adversarial, SleeperAfter: w.SleeperAfter}
	}
	p, err := crowd.NewPanel(specs, perQuestion, costPerTask, seed)
	if err != nil {
		return nil, fmt.Errorf("joininference: %w", err)
	}
	return &ReliabilityCrowd{truth: truth, panel: p, raw: make(map[QuestionRef]map[string]Label)}, nil
}

// workerWeight estimates a worker's signed log-odds vote weight from its
// posterior, under an optimistic Beta(4,1)-style prior (fresh workers start
// near accuracy 0.8, so a cold panel still converges at unit-ish weights
// instead of stalling at zero evidence).
func (c *ReliabilityCrowd) workerWeight(id string) float64 {
	p := c.rel.Posterior(id)
	acc := (float64(p.Correct) + 4) / (float64(p.Correct+p.Wrong) + 5)
	return belief.WeightFromAccuracy(acc)
}

// Votes implements VoteOracle with one panel round. The truth oracle
// answers outside the mutex, like Crowd.Label.
func (c *ReliabilityCrowd) Votes(ctx context.Context, q Question) ([]LabeledVote, error) {
	truth, err := c.truth.Label(ctx, q)
	if err != nil {
		return nil, err
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	round := c.panel.Round(truth)
	ref := q.Ref()
	log := c.raw[ref]
	if log == nil {
		log = make(map[string]Label, len(round))
		c.raw[ref] = log
	}
	out := make([]LabeledVote, 0, len(round))
	for _, rv := range round {
		log[rv.Worker] = rv.Label
		w := c.workerWeight(rv.Worker)
		l := rv.Label
		if w < 0 {
			l, w = !l, -w
		}
		// A floor keeps a dead-even posterior from collapsing the vote to
		// nothing (SanitizeWeight would bounce an exact 0 back to 1).
		if w < 0.05 {
			w = 0.05
		}
		out = append(out, LabeledVote{Label: l, Vote: Vote{Worker: rv.Worker, Weight: w}})
	}
	return out, nil
}

// Label implements Oracle by aggregating one round with the learned
// weights, so the same crowd can also drive hard sessions.
func (c *ReliabilityCrowd) Label(ctx context.Context, q Question) (Label, error) {
	votes, err := c.Votes(ctx, q)
	if err != nil {
		return Negative, err
	}
	net := 0.0
	for _, v := range votes {
		if v.Label == Positive {
			net += v.Vote.Weight
		} else {
			net -= v.Vote.Weight
		}
	}
	return Label(net > 0), nil
}

// Absorb grades workers from soft-session events: a commit confirms the
// workers whose raw answer matches the committed label, a retraction
// reverses the judgment for the workers who backed the withdrawn label.
func (c *ReliabilityCrowd) Absorb(events []SoftEvent) {
	c.mu.Lock()
	defer c.mu.Unlock()
	for _, ev := range events {
		log := c.raw[ev.Ref]
		if log == nil {
			continue
		}
		for id, raw := range log {
			switch ev.Kind {
			case SoftCommit:
				c.rel.Observe(id, bool(raw) == ev.Positive)
			case SoftRetract:
				// The committed label turned out wrong: workers who agreed
				// with it get a corrective wrong grade, dissenters a credit.
				c.rel.Observe(id, bool(raw) != ev.Positive)
			}
		}
	}
}

// Reliabilities reports the learned per-worker posteriors, sorted by id.
func (c *ReliabilityCrowd) Reliabilities() []WorkerReliability {
	c.mu.Lock()
	defer c.mu.Unlock()
	snap := c.rel.Snapshot()
	out := make([]WorkerReliability, len(snap))
	for i, wp := range snap {
		out[i] = WorkerReliability{Worker: wp.Worker, Accuracy: wp.Accuracy, Correct: wp.Posterior.Correct, Wrong: wp.Posterior.Wrong}
	}
	return out
}

// Microtasks returns the number of individual worker answers so far.
func (c *ReliabilityCrowd) Microtasks() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.panel.Microtasks
}

// Questions returns the number of crowd rounds dispatched.
func (c *ReliabilityCrowd) Questions() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.panel.Questions
}

// TotalCost returns Microtasks · costPerTask.
func (c *ReliabilityCrowd) TotalCost() float64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.panel.TotalCost()
}

// RunResult reports the outcome of Run.
type RunResult struct {
	// Inferred is the most specific predicate consistent with the answers;
	// instance-equivalent to the oracle's goal when Determined holds.
	Inferred Pred
	// Questions is the number of questions the oracle answered.
	Questions int
	// Determined reports whether the halt condition Γ was reached (no
	// informative question remained); false when Run stopped early on a
	// budget, cancellation, or oracle error.
	Determined bool
}

// maxVoteRounds caps the crowd rounds Run spends on a single question of a
// soft session before giving up: a panel whose weighted evidence keeps
// cancelling out would otherwise loop forever.
const maxVoteRounds = 256

// Run drives a session to completion against an oracle: the general
// inference algorithm (Algorithm 1) for join sessions, the interactive
// heuristic for semijoin sessions — one code path for both. It stops at
// the halt condition Γ, a spent budget (ErrBudgetExhausted), context
// cancellation, inconsistent answers (ErrInconsistent), or an oracle
// error; on error the result still carries the best predicate so far.
//
// On a soft session (WithSoftInference) driven by a VoteOracle, Run feeds
// individual worker votes through AnswerVote — asking further crowd rounds
// on the same question until its belief commits — and relays commit and
// retraction events to the oracle when it implements SoftEventAbsorber, so
// worker-reliability posteriors learn from downstream agreement.
func Run(ctx context.Context, s *Session, o Oracle) (RunResult, error) {
	vo, _ := o.(VoteOracle)
	absorber, _ := o.(SoftEventAbsorber)
	feedback := func() {
		if absorber != nil && s.Soft() {
			if evs := s.SoftEvents(); len(evs) > 0 {
				absorber.Absorb(evs)
			}
		}
	}
	for {
		qs, err := s.NextQuestions(ctx, 1)
		if err != nil {
			return s.runResult(false), err
		}
		if len(qs) == 0 {
			return s.runResult(true), nil
		}
		if vo != nil && s.Soft() {
			if err := runVoteRounds(ctx, s, vo, qs[0]); err != nil {
				feedback()
				return s.runResult(false), err
			}
			feedback()
			continue
		}
		l, err := o.Label(ctx, qs[0])
		if err != nil {
			return s.runResult(false), fmt.Errorf("joininference: oracle: %w", err)
		}
		if err := s.Answer(qs[0], l); err != nil {
			feedback()
			return s.runResult(false), err
		}
		feedback()
	}
}

// runVoteRounds feeds crowd rounds of votes into one question until its
// class stops being informative (committed, or settled by implication).
func runVoteRounds(ctx context.Context, s *Session, vo VoteOracle, q Question) error {
	for rounds := 0; s.IsInformative(q); rounds++ {
		if rounds >= maxVoteRounds {
			return fmt.Errorf("joininference: question (%d,%d) did not reach the belief threshold after %d crowd rounds", q.RIndex, q.PIndex, maxVoteRounds)
		}
		votes, err := vo.Votes(ctx, q)
		if err != nil {
			return fmt.Errorf("joininference: oracle: %w", err)
		}
		if len(votes) == 0 {
			return fmt.Errorf("joininference: oracle returned no votes")
		}
		for _, v := range votes {
			if err := s.AnswerVote(q, v.Label, v.Vote); err != nil {
				return err
			}
		}
	}
	return nil
}

func (s *Session) runResult(determined bool) RunResult {
	return RunResult{Inferred: s.Inferred(), Questions: s.asked, Determined: determined}
}
