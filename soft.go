package joininference

import (
	"errors"
	"fmt"
	"sort"

	"repro/internal/belief"
)

// WithSoftInference turns on the error-tolerant soft layer: answers become
// weighted votes accumulating per-class log-odds belief, and a label
// commits to the exact version-space engine only when the net belief
// magnitude reaches threshold. A non-positive threshold means 1 — a single
// unit vote decides, which (with a zero error budget) makes the session's
// question sequence bit-identical to the hard path. Combine with
// WithErrorBudget to absorb and later correct wrong commits instead of
// surfacing ErrInconsistent.
func WithSoftInference(threshold float64) Option {
	return func(c *sessionConfig) {
		c.soft = true
		c.softThreshold = threshold
	}
}

// WithErrorBudget allows up to n committed answers to be retracted over the
// session's lifetime: when a commit contradicts the version space, the
// session searches the committed transcript for a minimal set of answers
// (lowest belief first, violated negatives first) whose removal restores
// consistency, replays the engine without them, and re-opens their
// questions — instead of rejecting the new answer with ErrInconsistent.
// The option implies soft inference (at the default threshold unless
// WithSoftInference also appears). Contradictions beyond the budget fall
// back to the hard path's behavior: the offending answer is rejected, the
// session stays intact.
func WithErrorBudget(n int) Option {
	return func(c *sessionConfig) {
		c.soft = true
		c.errorBudget = n
	}
}

// Vote identifies the provenance of one soft answer: the worker who cast
// it and the weight of their voice (a log-odds reliability estimate;
// non-positive or non-finite weights count as 1 unit vote).
type Vote struct {
	Worker string
	Weight float64
}

// WorkerVote is one recorded vote behind a committed (or retracted)
// answer, reported by SoftEvents and Explain.
type WorkerVote struct {
	Worker   string  `json:"worker,omitempty"`
	Weight   float64 `json:"weight"`
	Positive bool    `json:"positive"`
}

// SoftEventKind labels a SoftEvent.
type SoftEventKind string

const (
	// SoftCommit records a label crossing the belief threshold into the
	// hard engine.
	SoftCommit SoftEventKind = "commit"
	// SoftRetract records a committed label being withdrawn to restore
	// consistency; its question re-opens.
	SoftRetract SoftEventKind = "retract"
)

// SoftEvent is one commit or retraction, with the votes that backed the
// answer — the feedback signal for worker-reliability models (a retracted
// answer's supporters were probably wrong).
type SoftEvent struct {
	Kind     SoftEventKind `json:"kind"`
	Ref      QuestionRef   `json:"ref"`
	Positive bool          `json:"positive"`
	Votes    []WorkerVote  `json:"votes,omitempty"`
}

// maxSoftEvents bounds the undrained event queue so a caller that never
// reads SoftEvents cannot leak memory; the oldest events drop first.
const maxSoftEvents = 1024

// SoftEventAbsorber is implemented by oracles that learn from commit and
// retraction events (ReliabilityOracle does); Run feeds them automatically.
type SoftEventAbsorber interface {
	Absorb(events []SoftEvent)
}

// SoftStats reports the soft layer's state.
type SoftStats struct {
	// Enabled is false for hard sessions (all other fields are zero).
	Enabled bool `json:"enabled"`
	// Threshold and ErrorBudget echo the options (after normalization).
	Threshold   float64 `json:"threshold"`
	ErrorBudget int     `json:"error_budget"`
	// Votes counts every recorded vote; with a budget set, this is the
	// quantity the budget caps.
	Votes int `json:"votes"`
	// Pending counts classes holding votes that have not committed yet.
	Pending int `json:"pending"`
	// Retractions counts committed answers withdrawn so far (budget spent).
	Retractions int `json:"retractions"`
}

// Soft reports whether the session runs the error-tolerant soft layer.
func (s *Session) Soft() bool { return s.soft != nil }

// SoftStats returns the soft layer's counters (zero value for hard
// sessions).
func (s *Session) SoftStats() SoftStats {
	if s.soft == nil {
		return SoftStats{}
	}
	pending := 0
	for _, k := range s.soft.Keys() {
		if b := s.soft.Get(k); b != (belief.Belief{}) && !s.softKeyCommitted(k) {
			pending++
		}
	}
	return SoftStats{
		Enabled:     true,
		Threshold:   s.soft.Threshold,
		ErrorBudget: s.soft.Budget,
		Votes:       s.soft.Votes,
		Pending:     pending,
		Retractions: s.soft.Spent,
	}
}

// softKeyCommitted reports whether key's class (or row) carries a
// committed label.
func (s *Session) softKeyCommitted(key int) bool {
	if key < 0 || key >= s.kern.keys() {
		return false
	}
	_, labeled := s.kern.labelOf(key)
	return labeled
}

// SoftEvents drains the queued commit/retraction events (oldest first).
func (s *Session) SoftEvents() []SoftEvent {
	evs := s.softEvents
	s.softEvents = nil
	return evs
}

func (s *Session) pushEvent(ev SoftEvent) {
	s.softEvents = append(s.softEvents, ev)
	if over := len(s.softEvents) - maxSoftEvents; over > 0 {
		s.softEvents = append(s.softEvents[:0], s.softEvents[over:]...)
	}
}

// interactions is the quantity WithBudget caps: recorded votes for soft
// sessions (every vote costs money in the crowdsourcing deployment),
// committed answers otherwise.
func (s *Session) interactions() int {
	if s.soft != nil {
		return s.soft.Votes
	}
	return s.asked
}

// AnswerVote records one weighted vote for a question of a soft session
// (WithSoftInference). The vote accumulates into the class's belief; when
// the net belief magnitude reaches the threshold, the majority label
// commits to the exact engine — and a commit contradicting earlier answers
// triggers the error-budget retraction search instead of failing. Returns
// ErrBudgetExhausted when WithBudget's allowance (counted in votes) is
// spent, and ErrInconsistent only when a contradiction cannot be absorbed
// within the error budget (the offending answer is then rejected and its
// belief cleared; the session stays intact, exactly like the hard path).
// A worker id longer than a snapshot can hold (256 bytes) is refused with
// ErrBadSnapshot before anything is recorded.
func (s *Session) AnswerVote(q Question, l Label, v Vote) error {
	if s.soft == nil {
		return fmt.Errorf("joininference: AnswerVote requires WithSoftInference")
	}
	if s.cfg.budget > 0 && s.soft.Votes >= s.cfg.budget {
		return ErrBudgetExhausted
	}
	if len(v.Worker) > maxSnapshotWorkerLen {
		// The vote could be recorded but not snapshotted.
		return fmt.Errorf("%w: worker id of %d bytes exceeds %d", ErrBadSnapshot, len(v.Worker), maxSnapshotWorkerLen)
	}
	key, err := s.answerKey(q)
	if err != nil {
		return err
	}
	s.soft.Vote(key, bool(l), v.Weight, v.Worker)
	positive, decided := s.soft.Decided(key)
	if !decided {
		return nil
	}
	return s.softCommit(q, key, Label(positive))
}

// workerVotes copies the recorded votes behind key into the public form.
func (s *Session) workerVotes(key int) []WorkerVote {
	recs := s.soft.VotesFor(key)
	if len(recs) == 0 {
		return nil
	}
	out := make([]WorkerVote, len(recs))
	for i, r := range recs {
		out[i] = WorkerVote{Worker: r.Worker, Weight: r.Weight, Positive: r.Positive}
	}
	return out
}

// disputedQuestions lists re-verification questions: refs holding votes
// that never committed, on classes (or rows) the committed sample already
// decides — exactly the questions a strategy will never serve again. They
// only exist after a retraction repair (evidence was set aside), and
// re-asking them is how a repair that guessed wrong gets corrected: the
// re-asks grow the disputed side's belief until it either re-commits
// consistently or wins the next contradiction's suspicion ordering.
func (s *Session) disputedQuestions(k int) []Question {
	if s.soft == nil || s.soft.Spent == 0 {
		return nil
	}
	var qs []Question
	for _, key := range s.soft.Keys() {
		if key < 0 || key >= s.kern.keys() || !s.kern.live(key) || s.softKeyCommitted(key) || s.soft.Get(key).Net() == 0 {
			continue
		}
		if ok, err := s.kern.informative(key); err != nil || ok {
			continue // the normal flow re-asks it
		}
		qs = append(qs, s.kern.question(key))
		if len(qs) == k {
			break
		}
	}
	return qs
}

// softCommit pushes a threshold-clearing label into the kernel, recovering
// via retraction when it contradicts the committed sample. A commit
// flipping the key's own earlier label goes straight to the retraction
// search: the key cannot sit on both sides of the sample.
func (s *Session) softCommit(q Question, key int, l Label) error {
	newEntry := TranscriptEntry{RIndex: q.RIndex, PIndex: q.PIndex, Positive: bool(l)}
	if positive, labeled := s.kern.labelOf(key); labeled {
		if positive == bool(l) {
			return nil // already committed with this label; the extra evidence is absorbed
		}
		return s.softRecover(newEntry, key, true)
	}
	if err := s.kern.commit(key, newEntry); err != nil {
		if errors.Is(err, ErrInconsistent) {
			return s.softRecover(newEntry, key, false)
		}
		return err
	}
	s.asked++
	s.markRNG()
	s.pushEvent(SoftEvent{Kind: SoftCommit, Ref: q.Ref(), Positive: bool(l), Votes: s.workerVotes(key)})
	return nil
}

// softRecover searches for the cheapest repair that restores consistency,
// bounded by the remaining error budget: discard the new answer, or
// retract committed ones. Candidates — the new answer included, unless it
// flips its key's own committed label (the evidence as a whole now favors
// it, so discarding it is never the repair) — rank by suspicion (see
// retractionOrder); phase 1 tries single repairs in that order, phase 2
// grows a prefix of the committed candidates. Phase 1 always ends at the
// discard candidate when it is present, so only a flip reaches phase 2. A
// discarded or retracted answer keeps its accumulated votes: its question
// is disputed, NextQuestions re-serves it, and the fresh evidence either
// re-commits it or singles out the actual lie at the next contradiction.
// When nothing within budget helps, the new answer is rejected exactly
// like the hard path.
func (s *Session) softRecover(newEntry TranscriptEntry, newKey int, flip bool) error {
	committed := s.kern.transcript()
	if remaining := s.soft.Remaining(); remaining > 0 {
		cands := s.retractionOrder(committed, newEntry, newKey, flip)
		dropped := cands[:0:0]
		for _, i := range cands {
			if i == len(committed) {
				return s.performDiscard(newEntry, newKey)
			}
			dropped = append(dropped, i)
			if ok, err := s.retract(committed, []int{i}, newEntry, newKey); ok || err != nil {
				return err
			}
		}
		for k := 2; k <= remaining && k <= len(dropped); k++ {
			if ok, err := s.retract(committed, dropped[:k], newEntry, newKey); ok || err != nil {
				return err
			}
		}
	}
	s.soft.Reset(newKey)
	return ErrInconsistent
}

// performDiscard spends budget on the incoming answer itself: the committed
// sample stands, the new answer is set aside as disputed (its votes stay —
// re-asks accumulate on top of them) and nothing commits.
func (s *Session) performDiscard(newEntry TranscriptEntry, newKey int) error {
	s.soft.Spent++
	s.pushEvent(SoftEvent{Kind: SoftRetract, Ref: QuestionRef{RIndex: newEntry.RIndex, PIndex: newEntry.PIndex},
		Positive: newEntry.Positive, Votes: s.workerVotes(newKey)})
	return nil
}

// retractionOrder orders the answers in conflict — the committed entries
// plus, unless flip, the incoming one (index len(committed), meaning
// "discard the new answer") — by suspicion: ascending belief magnitude
// first (the answer with the least evidence behind it is the most likely
// lie), then the negatives the kernel finds violated (join only), then
// most recent answer first — an old commit has survived every consistency
// check since it was made, while the newest one has survived none. With
// one vote everywhere the first repair is a guess; if it was wrong, the
// disputed question's re-asks grow its belief and the next contradiction
// ranks the actual lie first.
func (s *Session) retractionOrder(committed []TranscriptEntry, newEntry TranscriptEntry, newKey int, flip bool) []int {
	violated := s.kern.violated(committed, newEntry)
	type cand struct {
		idx      int
		violated bool
		belief   float64
	}
	cands := make([]cand, 0, len(committed)+1)
	for i, e := range committed {
		cands = append(cands, cand{idx: i, belief: s.soft.Get(s.entryKey(e)).Abs()})
	}
	if !flip {
		cands = append(cands, cand{idx: len(committed), belief: s.soft.Get(newKey).Abs()})
	}
	for i := range cands {
		cands[i].violated = violated != nil && violated[cands[i].idx]
	}
	sort.SliceStable(cands, func(i, j int) bool {
		if cands[i].belief != cands[j].belief {
			return cands[i].belief < cands[j].belief
		}
		if cands[i].violated != cands[j].violated {
			return cands[i].violated
		}
		return cands[i].idx > cands[j].idx
	})
	out := make([]int, len(cands))
	for i, c := range cands {
		out[i] = c.idx
	}
	return out
}

// entryKey returns the key a committed transcript entry decided (-1 when
// it no longer fits the instance).
func (s *Session) entryKey(e TranscriptEntry) int {
	key, err := s.kern.keyOf(QuestionRef{RIndex: e.RIndex, PIndex: e.PIndex})
	if err != nil {
		return -1
	}
	return key
}

// dropEntries copies entries, skipping the listed indexes.
func dropEntries(entries []TranscriptEntry, drop []int) []TranscriptEntry {
	skip := make(map[int]bool, len(drop))
	for _, i := range drop {
		skip[i] = true
	}
	out := make([]TranscriptEntry, 0, len(entries)+1)
	for i, e := range entries {
		if !skip[i] {
			out = append(out, e)
		}
	}
	return out
}

// retract checks committed minus drop plus newEntry for consistency and,
// only if it holds (ok), spends budget on the
// dropped entries, rebuilds the state on that transcript, and emits the
// retract/commit events. The dropped entries keep their beliefs: their
// questions re-open as disputed, and the retained votes make a wrongly
// retracted answer win the next contradiction once re-asks corroborate
// it. rngMark is kept, like the hard path's rollback: the committed answer
// count changed but the RND stream position of the last draw did not.
func (s *Session) retract(committed []TranscriptEntry, drop []int, newEntry TranscriptEntry, newKey int) (ok bool, err error) {
	trial := append(dropEntries(committed, drop), newEntry)
	if ok, err := s.kern.consistent(trial); !ok || err != nil {
		return false, err
	}
	for _, i := range drop {
		e := committed[i]
		s.pushEvent(SoftEvent{Kind: SoftRetract, Ref: QuestionRef{RIndex: e.RIndex, PIndex: e.PIndex}, Positive: e.Positive, Votes: s.workerVotes(s.entryKey(e))})
		s.soft.Spent++
	}
	if err := s.rebuild(trial); err != nil {
		return true, fmt.Errorf("joininference: rebuilding after retraction: %w", err)
	}
	s.pushEvent(SoftEvent{Kind: SoftCommit, Ref: QuestionRef{RIndex: newEntry.RIndex, PIndex: newEntry.PIndex}, Positive: newEntry.Positive, Votes: s.workerVotes(newKey)})
	return true, nil
}

// AnswerAttribution scores one committed answer's contribution to the
// inferred predicate (Explain).
type AnswerAttribution struct {
	// Ref addresses the answered question; Positive is the committed label.
	Ref      QuestionRef `json:"ref"`
	Positive bool        `json:"positive"`
	// Score is the Banzhaf-style contribution: the fraction of coalitions
	// of the other answers whose version-space outcome this answer changes
	// (0 = dead weight, 1 = pivotal everywhere). For semijoin sessions it
	// is 1 when Critical, else 0.
	Score float64 `json:"score"`
	// Critical reports whether dropping just this answer changes the
	// outcome given all the others.
	Critical bool `json:"critical"`
	// Workers lists the votes behind the answer (soft sessions only).
	Workers []WorkerVote `json:"workers,omitempty"`
}

// Explain attributes the inferred predicate to the committed answers: a
// Banzhaf-style score per answer ("why did you infer this join?") that
// doubles as a worker-quality signal when votes carry worker ids. Join
// sessions get exact coalition enumeration for up to 13 answers and
// deterministic seeded sampling beyond; semijoin sessions get the drop-one
// criticality test (each probe is a CONS⋉ decision).
func (s *Session) Explain() []AnswerAttribution {
	tr := s.Transcript()
	if len(tr) == 0 {
		return nil
	}
	scores, critical := s.kern.attribute(tr, s.cfg.seed)
	out := make([]AnswerAttribution, len(tr))
	for i, e := range tr {
		out[i] = AnswerAttribution{Ref: QuestionRef{RIndex: e.RIndex, PIndex: e.PIndex}, Positive: e.Positive,
			Score: scores[i], Critical: critical[i]}
		if s.soft != nil {
			out[i].Workers = s.workerVotes(s.entryKey(e))
		}
	}
	return out
}
