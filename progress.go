package joininference

import (
	"fmt"
	"math/big"

	"repro/internal/certainty"
	"repro/internal/inference"
	"repro/internal/strategy"
	"repro/internal/versionspace"
)

// Progress summarizes how far a session has converged.
type Progress struct {
	// Candidates is the number of join predicates still consistent with
	// the answers (nil in the astronomically unlikely case it cannot be
	// counted). When the session is Done, all remaining candidates are
	// instance-equivalent.
	Candidates *big.Int
	// RemainingQuestions is the number of informative classes left — the
	// worst-case number of further questions.
	RemainingQuestions int
	// TotalClasses and Answered mirror Classes() and Questions().
	TotalClasses int
	Answered     int
}

// Progress reports the session's convergence state; useful for showing the
// user "N candidate queries remain" between questions. For semijoin
// sessions (whose version space has no tractable description) only
// Answered is populated.
func (s *Session) Progress() Progress {
	k := s.join()
	if k == nil {
		return Progress{Answered: s.asked}
	}
	p := versionspace.Describe(k.engine)
	return Progress{
		Candidates:         p.Candidates,
		RemainingQuestions: p.InformativeClasses,
		TotalClasses:       p.TotalClasses,
		Answered:           p.Labeled,
	}
}

// Candidates enumerates the predicates still consistent with the answers,
// most general first, provided |T(S+)| ≤ maxBits (the enumeration is
// 2^|T(S+)|); it returns nil when the space is too large — check
// Progress().Candidates first.
func (s *Session) Candidates(maxBits int) []Pred {
	if k := s.join(); k != nil {
		return versionspace.Enumerate(k.engine, maxBits)
	}
	return nil
}

// Explanation tells the user why a question is worth asking.
type Explanation struct {
	// DecidedIfYes / DecidedIfNo count the product tuples whose membership
	// each answer settles immediately (beyond the asked tuples themselves).
	DecidedIfYes, DecidedIfNo int64
	// CandidatesIfYes / CandidatesIfNo count the join predicates that
	// would remain consistent after each answer (nil if uncountable).
	CandidatesIfYes, CandidatesIfNo *big.Int
}

// ExplainQuestion computes the impact of both possible answers to a
// question, without recording anything. (Session.Explain attributes the
// inferred predicate to the answers already committed.)
func (s *Session) ExplainQuestion(q Question) Explanation {
	k := s.join()
	ci, err := s.questionKey(q)
	if k == nil || err != nil {
		return Explanation{}
	}
	theta := k.theta(ci)
	tpos := k.engine.TPos()
	negs := k.engine.Sample().Negatives()
	kern, th := k.engine.Certainty(), theta.Set.Words()

	return Explanation{
		CandidatesIfYes: strategy.CountConsistent(tpos.Intersect(theta), negs),
		CandidatesIfNo:  strategy.CountConsistent(tpos, append(negs, theta)),
		DecidedIfYes:    countDecided(k.engine, ci, kern.WithPositive(nil, th)),
		DecidedIfNo:     countDecided(k.engine, ci, kern.WithNegative(nil, th)),
	}
}

// countDecided counts the base-informative tuples that hyp, the kernel
// after a hypothetical label of class ci, makes certain; ci's own tuple
// does not count, its class twins do.
func countDecided(e *inference.Engine, ci int, hyp certainty.Kernel) int64 {
	var sum int64
	for _, cj := range e.InformativeClasses() {
		c := e.Classes()[cj]
		if cj == ci {
			sum += c.Count - 1
		} else if hyp.Certain(c.Theta.Set.Words()) {
			sum += c.Count
		}
	}
	return sum
}

// Undo retracts the most recent answer. It rebuilds the sample from the
// transcript, so it costs O(answers) and supports repeated undo back to
// the empty session.
func (s *Session) Undo() error {
	tr := s.Transcript()
	if len(tr) == 0 {
		return fmt.Errorf("joininference: nothing to undo")
	}
	if err := s.rebuild(tr[:len(tr)-1]); err != nil {
		return err
	}
	// RND restarts its stream from the seed, matching the fresh strategy.
	s.rngMark = 0
	return nil
}
