package joininference

import (
	"context"
	"fmt"
	"sync"

	"repro/internal/belief"
	"repro/internal/inference"
	"repro/internal/policy"
	"repro/internal/predicate"
	"repro/internal/product"
	"repro/internal/semijoin"
	"repro/internal/strategy"
)

// Question is a membership query. For join sessions it asks "should this
// pair of rows be joined?"; for semijoin sessions (NewSemijoinSession) it
// asks "should this row of R be kept?" and PIndex is -1 with a nil PTuple.
type Question struct {
	// RTuple and PTuple are the rows being paired (PTuple is nil for
	// semijoin questions).
	RTuple, PTuple Tuple
	// RIndex, PIndex locate them in the instance; PIndex is -1 for
	// semijoin questions.
	RIndex, PIndex int
	// EquivalentTuples is the number of product tuples this answer decides
	// directly (the size of the tuple's T-class; 1 for semijoin questions).
	EquivalentTuples int64

	// key is the T-class index (join) or the row of R (semijoin) the
	// answer decides.
	key  int
	u    *Universe
	inst *Instance
}

// Semijoin reports whether the question belongs to a semijoin session
// ("keep this row?") rather than a join session ("pair these rows?").
func (q Question) Semijoin() bool { return q.PIndex < 0 }

// Option configures a Session at construction time.
type Option func(*sessionConfig)

type sessionConfig struct {
	stratID        StrategyID
	custom         Strategy
	seed           int64
	budget         int
	classes        *ClassSet
	parallelism    int
	policy         *PolicyCache
	policyInstance string
	soft           bool
	softThreshold  float64
	errorBudget    int
	tel            Telemetry
}

// WithStrategy selects the questioning strategy the session uses for
// NextQuestions and Run. The default is StrategyTD. An unknown id surfaces
// as ErrUnknownStrategy on the first question.
func WithStrategy(id StrategyID) Option {
	return func(c *sessionConfig) { c.stratID = id; c.custom = nil }
}

// WithCustomStrategy plugs in a caller-implemented Strategy instead of one
// of the built-in StrategyIDs.
func WithCustomStrategy(st Strategy) Option {
	return func(c *sessionConfig) { c.custom = st }
}

// WithSeed seeds the session's randomness (used by StrategyRND); sessions
// with equal seeds, strategies and answers ask identical questions. The
// default seed is 1.
func WithSeed(seed int64) Option {
	return func(c *sessionConfig) { c.seed = seed }
}

// WithBudget caps the number of questions the session will accept answers
// for; 0 (the default) means unlimited. Once the budget is spent while
// informative questions remain, NextQuestions, Answer and Run return
// ErrBudgetExhausted; Inferred still returns the best predicate so far.
func WithBudget(n int) Option {
	return func(c *sessionConfig) { c.budget = n }
}

// WithParallelism fans the per-candidate lookahead evaluations of
// StrategyL1S and StrategyL2S across n goroutines per question: 0 and 1
// keep evaluation serial, negative uses one worker per CPU. The parallel
// reduction applies the exact serial selection rule, so the questions a
// session asks — and hence its interaction counts — are bit-identical for
// every n. Strategies without a lookahead ignore the knob.
func WithParallelism(n int) Option {
	return func(c *sessionConfig) { c.parallelism = n }
}

// WithPrecomputedClasses supplies the per-version state a ClassSet holds,
// computed once and shared by every session over that instance version
// (e.g. serving concurrent users, or rerunning with different oracles):
// join sessions adopt its T-classes and skip the product scan; semijoin
// sessions adopt its witness table, when the set was computed for the
// session's own instance version, and skip recomputing the witness sets.
func WithPrecomputedClasses(cs *ClassSet) Option {
	return func(c *sessionConfig) { c.classes = cs }
}

// ClassSet is an opaque handle to the derived state of one instance
// version, shareable across sessions via WithPrecomputedClasses: the
// T-classes of join sessions with their pair → class index (built on
// first use), and the CONS⋉ witness sets of semijoin sessions (filled
// lazily, row by row, by whichever session needs a row first). It records
// the instance version it was computed for — PrecomputeClasses's argument,
// ApplyDelta's new version, or the decoded instance of
// DecodeInstanceCache — and the witness sets are always built from that
// version.
type ClassSet struct {
	classes []*product.Class
	inst    *Instance

	idxOnce sync.Once
	idx     *product.Index

	witsOnce sync.Once
	wits     *semijoin.Table
}

// PrecomputeClasses scans the instance's Cartesian product (through the
// shared-value index, never materializing the product) and groups it into
// T-classes. The result may back any number of concurrent sessions over the
// same instance.
func PrecomputeClasses(inst *Instance) *ClassSet {
	u := predicate.NewUniverse(inst)
	return &ClassSet{classes: product.ClassesIndexed(inst, u), inst: inst}
}

// index returns the set's product pair → T-class lookup, building it on
// first use; join sessions over the set share it.
func (cs *ClassSet) index() *product.Index {
	cs.idxOnce.Do(func() { cs.idx = product.NewIndex(predicate.NewUniverse(cs.inst), cs.classes) })
	return cs.idx
}

// witnesses returns the semijoin witness table of the set's instance
// version, creating it (empty) on first use.
func (cs *ClassSet) witnesses() *semijoin.Table {
	cs.witsOnce.Do(func() { cs.wits = semijoin.NewTable(cs.inst) })
	return cs.wits
}

// Len returns the number of T-classes in the set.
func (cs *ClassSet) Len() int { return len(cs.classes) }

// Strategy is a caller-implemented questioning strategy (the Υ of
// Algorithm 1), plugged in with WithCustomStrategy. Next must return the
// index of an informative class while one remains, and a negative value
// only once none does; any other pick fails the NextQuestions (and Run)
// that asked for it with an error naming the strategy.
type Strategy interface {
	// Name identifies the strategy in reports.
	Name() string
	// Next returns the index of the class whose representative tuple the
	// user should label next.
	Next(v StrategyView) int
}

// StrategyView is the read-only session state a custom Strategy inspects.
// Class indexes are stable for the whole session.
type StrategyView interface {
	// NumClasses returns the number of T-classes.
	NumClasses() int
	// ClassPred returns the most specific predicate T(t) of class ci.
	ClassPred(ci int) Pred
	// ClassCount returns the number of product tuples in class ci.
	ClassCount(ci int) int64
	// Informative reports whether labeling class ci would shrink the set of
	// consistent predicates (Theorem 3.5).
	Informative(ci int) bool
	// InformativeClasses returns the indexes of all informative classes.
	InformativeClasses() []int
	// TPos returns T(S+), the most specific predicate consistent with the
	// positive answers (Ω while none exist).
	TPos() Pred
	// Negatives returns the T values of the negative answers.
	Negatives() []Pred
}

type engineView struct{ e *inference.Engine }

func (v engineView) NumClasses() int         { return len(v.e.Classes()) }
func (v engineView) ClassPred(ci int) Pred   { return v.e.Classes()[ci].Theta.Clone() }
func (v engineView) ClassCount(ci int) int64 { return v.e.Classes()[ci].Count }
func (v engineView) Informative(ci int) bool { return v.e.Informative(ci) }
func (v engineView) InformativeClasses() []int {
	// The engine returns its scratch buffer; callers of the public API may
	// retain the slice, so hand out a copy.
	return append([]int(nil), v.e.InformativeClasses()...)
}
func (v engineView) TPos() Pred { return v.e.TPos().Clone() }
func (v engineView) Negatives() []Pred {
	// The engine's kernel keeps only the ⊆-maximal negatives; the sample
	// has every answer, in a fresh slice.
	negs := v.e.Sample().Negatives()
	for i, n := range negs {
		negs[i] = n.Clone()
	}
	return negs
}

// customStrategy adapts a public Strategy to the internal interface.
type customStrategy struct{ st Strategy }

func (c customStrategy) Name() string                 { return c.st.Name() }
func (c customStrategy) Next(e *inference.Engine) int { return c.st.Next(engineView{e}) }

// Session is an interactive inference session over one instance: the
// question loop of Algorithm 1 driven from outside, so the caller owns the
// user (or crowd) interaction. Join sessions come from NewSession, semijoin
// sessions from NewSemijoinSession. One driver serves both: it owns the
// budget, batching, disputed questions, the policy cache, the soft layer,
// undo, instance updates and snapshots, over a kernel that decides keys —
// T-classes through the version-space engine (PTIME) for join, rows of R
// through the CONS⋉ solver (NP-complete) for semijoin.
type Session struct {
	inst *Instance
	cfg  sessionConfig
	kern kernel

	asked int

	// soft is the error-tolerant belief layer (nil for hard sessions);
	// softEvents queues its commit/retraction events until drained.
	soft       *belief.State
	softEvents []SoftEvent

	// rngMark is the RND source position as of the last recorded answer
	// (resume replays up to here, so an outstanding unanswered question is
	// re-drawn identically after ResumeSession). Zero for other strategies.
	rngMark uint64

	// picked is the scratch of a fetch's picks; nothing retains it past
	// the fetch (questions and published nodes copy it).
	picked []int
}

// NewSession prepares a join-inference session: it scans the Cartesian
// product once (or adopts WithPrecomputedClasses) and groups it into
// T-classes. Options select the strategy, seed, and budget.
func NewSession(inst *Instance, opts ...Option) *Session {
	return newSession(inst, configure(opts), SnapshotKindJoin)
}

// NewSemijoinSession prepares an interactive semijoin-inference session
// (the Section 7 future-work scenario): questions are single rows of R and
// every informativeness test pays the NP-complete CONS⋉ price, so expect
// exponential worst cases by design. Strategy options are ignored — rows
// are asked in scan order — but WithBudget applies. With
// WithPrecomputedClasses computed for inst, the session shares that
// version's witness table with every other session over it; otherwise it
// keeps a private one.
func NewSemijoinSession(inst *Instance, opts ...Option) *Session {
	return newSession(inst, configure(opts), SnapshotKindSemijoin)
}

// configure applies opts over the defaults (StrategyTD, seed 1).
func configure(opts []Option) sessionConfig {
	cfg := sessionConfig{stratID: StrategyTD, seed: 1}
	for _, o := range opts {
		o(&cfg)
	}
	return cfg
}

// newSession builds a session of the given snapshot kind over inst.
func newSession(inst *Instance, cfg sessionConfig, kind string) *Session {
	s := &Session{cfg: cfg}
	s.reset(inst, kind)
	return s
}

// reset puts the session on inst with nothing committed: a fresh kernel of
// the given kind over the configured per-version state, and a fresh soft
// layer for soft sessions. The configuration and rngMark are kept.
func (s *Session) reset(inst *Instance, kind string) {
	s.inst, s.asked, s.soft = inst, 0, nil
	if s.cfg.soft {
		s.soft = belief.New(s.cfg.softThreshold, s.cfg.errorBudget)
	}
	cs := s.cfg.classes
	if kind == SnapshotKindSemijoin {
		if cs != nil && cs.inst == inst {
			s.kern = newSemijoinKernel(cs.witnesses())
		} else {
			s.kern = newSemijoinKernel(semijoin.NewTable(inst))
		}
		return
	}
	if cs == nil || cs.classes == nil {
		cs = PrecomputeClasses(inst)
	}
	s.kern = &joinKernel{
		engine:   inference.New(inst, inference.WithClasses(cs.classes)),
		classes:  cs,
		newStrat: s.newStrategy,
	}
}

// newStrategy builds the configured strategy; RND fast-forwards to the
// marked stream position (0 for a fresh session).
func (s *Session) newStrategy() (inference.Strategy, error) {
	if s.cfg.custom != nil {
		return customStrategy{s.cfg.custom}, nil
	}
	switch s.cfg.stratID {
	case StrategyBU:
		return strategy.BottomUp{}, nil
	case StrategyTD:
		return strategy.NewTopDown(), nil
	case StrategyL1S:
		return strategy.L1S(s.cfg.parallelism), nil
	case StrategyL2S:
		return strategy.L2S(s.cfg.parallelism), nil
	case StrategyRND:
		return strategy.NewRandomAt(s.cfg.seed, s.rngMark), nil
	default:
		return nil, fmt.Errorf("%w: %q", ErrUnknownStrategy, s.cfg.stratID)
	}
}

// join returns the join kernel, nil for semijoin sessions; the join-only
// diagnostics (Classes, Progress, Candidates, ExplainQuestion) read it.
func (s *Session) join() *joinKernel {
	k, _ := s.kern.(*joinKernel)
	return k
}

// Universe returns Ω for formatting predicates.
func (s *Session) Universe() *Universe { return s.kern.universe() }

// Budget returns the session's question budget (0 = unlimited).
func (s *Session) Budget() int { return s.cfg.budget }

// Questions returns the number of answers recorded so far.
func (s *Session) Questions() int { return s.asked }

// Classes returns the number of T-classes of the product (the worst-case
// number of questions); 0 for semijoin sessions, which have no tractable
// class structure.
func (s *Session) Classes() int {
	if k := s.join(); k != nil {
		return k.keys()
	}
	return 0
}

// Done reports whether no informative question remains (halt condition Γ):
// at most one predicate, up to instance equivalence, is consistent with the
// answers. For semijoin sessions this test itself is NP-hard and scans all
// unlabeled rows.
func (s *Session) Done() bool {
	done, _ := s.kern.done(context.Background())
	return done
}

// NextQuestions returns up to k pairwise-informative questions: the
// strategy's best pick plus further informative questions guaranteed to
// stay informative under either answer to any other returned question, so
// all k can be dispatched to crowd workers in parallel and every answer
// that comes back still carries information. It returns an empty slice
// (and nil error) when the session is done, ErrBudgetExhausted when the
// budget is spent with questions remaining, and the context's error if ctx
// is cancelled — including mid-way through an expensive L2S lookahead.
//
// When fewer than k mutually informative questions exist, fewer are
// returned; a budget caps k at the remaining allowance.
//
// With WithPolicyCache attached, the strategy's pick (and the batch
// pivots) for the current answer prefix is served from the shared cache
// when another session already computed it, and published for others
// after a live computation; served questions are bit-identical to what
// the strategy would have picked.
func (s *Session) NextQuestions(ctx context.Context, k int) ([]Question, error) {
	// A batch holds at most one question per key, so larger k serves the
	// same questions; clamping keeps batch buffers sized to the instance,
	// not to the caller's k.
	k = max(min(k, s.kern.keys()), 1)
	if err := ctx.Err(); err != nil {
		return nil, fmt.Errorf("joininference: %w", err)
	}
	if s.cfg.budget > 0 {
		remaining := s.cfg.budget - s.interactions()
		if remaining <= 0 {
			done, err := s.kern.done(ctx)
			if err != nil {
				return nil, err
			}
			if done {
				return nil, nil
			}
			return nil, ErrBudgetExhausted
		}
		k = min(k, remaining)
	}
	// Disputed questions — evidence set aside by a retraction repair — are
	// re-served before anything else: their keys are already decided by
	// the committed sample, so no strategy would ever pick them again, yet
	// resolving them is what corrects a repair that guessed wrong.
	if qs := s.disputedQuestions(k); len(qs) > 0 {
		return qs, nil
	}
	// Resolve the strategy before the cache lookup: an unknown id fails
	// here, and RND's stream position is part of the node key.
	if _, err := s.kern.random(); err != nil {
		return nil, err
	}
	tStart := s.telemetryStart()
	// Policy-cache fast path: when another session (or this one's past) has
	// already reached this answer prefix, serve its memoized pick instead of
	// invoking the strategy.
	pol := s.policyActive()
	var prefix []byte
	var rngBefore uint64
	if pol != nil {
		var ok bool
		if prefix, ok = s.policyPrefix(); !ok {
			pol = nil
		} else {
			rngBefore = s.policyRNGPos()
			if node, hit := pol.Lookup(s.policyTreeKey(), prefix, rngBefore); hit {
				qs, served, err := s.servePolicy(ctx, node, prefix, rngBefore, k)
				if served || err != nil {
					s.observe(TelemetryCache, tStart)
					return qs, err
				}
			}
		}
	}
	first, err := s.kern.next(ctx)
	if err != nil {
		return nil, err
	}
	if first < 0 {
		if pol != nil {
			pol.Publish(s.policyTreeKey(), prefix, rngBefore,
				policy.Node{Chosen: -1, Complete: true, RNGAfter: s.policyRNGPos()})
		}
		s.observe(TelemetryStrategy, tStart)
		return nil, nil
	}
	picked, complete, err := s.extend(ctx, append(s.picked[:0], first), k)
	if err != nil {
		return nil, err
	}
	if pol != nil {
		pol.Publish(s.policyTreeKey(), prefix, rngBefore, policy.Node{
			Chosen:   first,
			Pivots:   append([]int(nil), picked[1:]...),
			Complete: complete,
			RNGAfter: s.policyRNGPos(),
		})
	}
	s.observe(TelemetryStrategy, tStart)
	return s.questions(picked), nil
}

// servePolicy serves a fetch from a cached decision node: fully from cache
// when the node covers k picks, else reusing the cached pick (the
// expensive part) and extending the batch walk live. Cached picks are
// validated with the kernel's O(1) askable test only. served=false with a
// nil error falls the caller back to a fully live computation — defensive,
// for nodes that no longer match the state they claim to describe.
func (s *Session) servePolicy(ctx context.Context, node policy.Node, prefix []byte, rngBefore uint64, k int) ([]Question, bool, error) {
	n := s.kern.keys()
	if node.Chosen >= 0 && (node.Chosen >= n || !s.kern.askable(node.Chosen)) {
		return nil, false, nil
	}
	for _, key := range node.Pivots {
		if key < 0 || key >= n || !s.kern.askable(key) {
			return nil, false, nil
		}
	}
	if picks, ok := policyPicks(node, k); ok {
		s.policySkipRNG(node.RNGAfter)
		if len(picks) == 0 {
			return nil, true, nil // Γ reached at this prefix, same nil as the live path
		}
		return s.questions(picks), true, nil
	}
	picked, complete, err := s.extend(ctx, append(append(s.picked[:0], node.Chosen), node.Pivots...), k)
	if err != nil {
		return nil, false, err
	}
	s.policySkipRNG(node.RNGAfter)
	s.policyActive().Publish(s.policyTreeKey(), prefix, rngBefore, policy.Node{
		Chosen:   node.Chosen,
		Pivots:   append([]int(nil), picked[1:]...),
		Complete: complete,
		RNGAfter: node.RNGAfter,
	})
	return s.questions(picked), true, nil
}

// extend grows picked to up to k pairwise-informative keys (see
// kernel.extend); with nothing to extend (k=1, the default serving loop)
// it skips the walk entirely. picked lives in the session's scratch, which
// the grown slice replaces.
func (s *Session) extend(ctx context.Context, picked []int, k int) ([]int, bool, error) {
	complete := false
	if len(picked) < k {
		var err error
		if picked, complete, err = s.kern.extend(ctx, picked, k); err != nil {
			return nil, false, err
		}
	}
	s.picked = picked
	return picked, complete, nil
}

// questions materializes the public Questions for the picked keys.
func (s *Session) questions(picked []int) []Question {
	qs := make([]Question, len(picked))
	for i, key := range picked {
		qs[i] = s.kern.question(key)
	}
	return qs
}

// questionKey returns the key of a question produced by a session of this
// kind (a hand-built Question carries no session state, and its zero key
// would silently name the wrong class or row). A question fetched before
// the session moved to another instance version carries the old version's
// key, so it is resolved again by its rows.
func (s *Session) questionKey(q Question) (int, error) {
	if q.u != nil && q.Semijoin() == (s.kern.kind() == SnapshotKindSemijoin) {
		if q.inst != s.inst {
			return s.kern.keyOf(q.Ref())
		}
		if q.key >= 0 && q.key < s.kern.keys() {
			return q.key, nil
		}
	}
	return 0, fmt.Errorf("joininference: question was not produced by this %s session", s.kern.kind())
}

// answerKey is questionKey for a question about to be answered: rows an
// instance update deleted can no longer be answered. A join question keeps
// the rows it named (see QuestionByRef), and its answer is recorded under
// them, so both rows must be live even while the T-class lives on through
// another pair; otherwise the next move would silently drop the answer.
func (s *Session) answerKey(q Question) (int, error) {
	key, err := s.questionKey(q)
	if err == nil && !rowsAlive(s.inst, q.RIndex, q.PIndex) {
		err = fmt.Errorf("%w: (%d,%d) names a deleted row", ErrBadQuestionRef, q.RIndex, q.PIndex)
	}
	return key, err
}

// Answer records the oracle's label for a question returned by
// NextQuestions (or QuestionByRef). It returns ErrBudgetExhausted when the
// budget is already spent and ErrInconsistent (wrapped) if the labels
// contradict every candidate predicate; a question about a deleted row
// fails with an error wrapping ErrBadQuestionRef. On a soft session
// (WithSoftInference) the answer is one unit-weight vote — see AnswerVote
// for the weighted form.
func (s *Session) Answer(q Question, l Label) error {
	if s.soft != nil {
		return s.AnswerVote(q, l, Vote{})
	}
	if s.cfg.budget > 0 && s.asked >= s.cfg.budget {
		return ErrBudgetExhausted
	}
	key, err := s.answerKey(q)
	if err != nil {
		return err
	}
	if _, labeled := s.kern.labelOf(key); labeled {
		return fmt.Errorf("joininference: question (%d,%d) already answered", q.RIndex, q.PIndex)
	}
	// A rejected answer leaves no trace — Transcript and Snapshot reflect
	// only accepted answers. rngMark stays: the stream position of the
	// last accepted answer is unchanged, so a re-fetched question
	// re-derives identically (same as after ResumeSession).
	if err := s.kern.commit(key, TranscriptEntry{RIndex: q.RIndex, PIndex: q.PIndex, Positive: bool(l)}); err != nil {
		return err
	}
	s.asked++
	s.markRNG()
	return nil
}

// markRNG records the RND source position after a recorded answer, so a
// snapshot resumes the stream exactly there (re-drawing any outstanding
// question identically). Other strategies have no stream to mark.
func (s *Session) markRNG() {
	if r, _ := s.kern.random(); r != nil {
		s.rngMark = r.Pos()
	}
}

// rebuild replaces the committed state with a replay of tr (Undo and the
// retraction repair). rngMark is the caller's to adjust.
func (s *Session) rebuild(tr []TranscriptEntry) error {
	if err := s.kern.rebuild(tr); err != nil {
		return err
	}
	s.asked = len(tr)
	return nil
}

// AnswerBatch records a batch of answers from a parallel dispatch (e.g. a
// crowd round), skipping questions whose class was already decided by an
// earlier answer in the same batch — pairwise informativeness guarantees
// single answers never invalidate each other, but combinations of three or
// more may. It returns how many answers were actually applied.
func (s *Session) AnswerBatch(qs []Question, labels []Label) (int, error) {
	if len(qs) != len(labels) {
		return 0, fmt.Errorf("joininference: %d questions but %d labels", len(qs), len(labels))
	}
	applied := 0
	for i, q := range qs {
		if !s.IsInformative(q) {
			continue
		}
		if err := s.Answer(q, labels[i]); err != nil {
			return applied, err
		}
		applied++
	}
	return applied, nil
}

// IsInformative reports whether answering q would still shrink the set of
// consistent predicates — false once earlier answers decided it, and
// always false for a question naming a row an instance update deleted.
// For semijoin sessions the test pays two CONS⋉ decisions.
func (s *Session) IsInformative(q Question) bool {
	key, err := s.questionKey(q)
	if err != nil || !rowsAlive(s.inst, q.RIndex, q.PIndex) {
		return false
	}
	ok, err := s.kern.informative(key)
	return err == nil && ok
}

// Inferred returns the current most specific consistent predicate; once
// Done() holds it is instance-equivalent to the oracle's goal. For semijoin
// sessions it is a consistent witness predicate for the answers so far.
func (s *Session) Inferred() Pred { return s.kern.inferred() }
