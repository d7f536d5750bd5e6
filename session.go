package joininference

import (
	"context"
	"fmt"

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

	classIndex int
	u          *Universe
	inst       *Instance
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

// WithPrecomputedClasses supplies T-classes computed once with
// PrecomputeClasses, so many sessions over the same instance (e.g. serving
// concurrent users, or rerunning with different oracles) skip the product
// scan.
func WithPrecomputedClasses(cs *ClassSet) Option {
	return func(c *sessionConfig) { c.classes = cs }
}

// ClassSet is an opaque handle to the T-classes of an instance, shareable
// across sessions via WithPrecomputedClasses.
type ClassSet struct {
	classes []*product.Class
}

// PrecomputeClasses scans the instance's Cartesian product (through the
// shared-value index, never materializing the product) and groups it into
// T-classes. The result may back any number of concurrent sessions over the
// same instance.
func PrecomputeClasses(inst *Instance) *ClassSet {
	u := predicate.NewUniverse(inst)
	return &ClassSet{classes: product.ClassesIndexed(inst, u)}
}

// Len returns the number of T-classes in the set.
func (cs *ClassSet) Len() int { return len(cs.classes) }

// Strategy is a caller-implemented questioning strategy (the Υ of
// Algorithm 1), plugged in with WithCustomStrategy. Next is called only
// while informative classes remain and must return the index of an
// informative class (or a negative value to stop early).
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
	negs := v.e.Negatives()
	out := make([]Pred, len(negs))
	for i, n := range negs {
		out[i] = n.Clone()
	}
	return out
}

// customStrategy adapts a public Strategy to the internal interface.
type customStrategy struct{ st Strategy }

func (c customStrategy) Name() string                 { return c.st.Name() }
func (c customStrategy) Next(e *inference.Engine) int { return c.st.Next(engineView{e}) }

// Session is an interactive inference session over one instance: the
// question loop of Algorithm 1 driven from outside, so the caller owns the
// user (or crowd) interaction. Join sessions come from NewSession, semijoin
// sessions from NewSemijoinSession; both feed the same Run/Oracle/
// NextQuestions machinery.
type Session struct {
	inst *Instance
	cfg  sessionConfig

	// Join mode.
	engine   *inference.Engine
	strat    inference.Strategy
	stratErr error
	classIdx map[string]int // T-class predicate key → class index

	// Semijoin mode.
	sj *semijoinState

	asked int

	// soft is the error-tolerant belief layer (nil for hard sessions);
	// softEvents queues its commit/retraction events until drained.
	soft       *belief.State
	softEvents []SoftEvent

	// batchTPos/batchNegs/batchInter are the scratch of the batch pairwise
	// scan (mutuallyInformative).
	batchTPos  Pred
	batchInter Pred
	batchNegs  []Pred

	// rngMark is the RND source position as of the last recorded answer
	// (resume replays up to here, so an outstanding unanswered question is
	// re-drawn identically after ResumeSession). Zero for other strategies.
	rngMark uint64
}

// NewSession prepares a join-inference session: it scans the Cartesian
// product once (or adopts WithPrecomputedClasses) and groups it into
// T-classes. Options select the strategy, seed, and budget.
func NewSession(inst *Instance, opts ...Option) *Session {
	cfg := sessionConfig{stratID: StrategyTD, seed: 1}
	for _, o := range opts {
		o(&cfg)
	}
	var engOpts []inference.Option
	if cfg.classes != nil {
		engOpts = append(engOpts, inference.WithClasses(cfg.classes.classes))
	}
	return &Session{
		inst:   inst,
		cfg:    cfg,
		engine: inference.New(inst, engOpts...),
		soft:   newSoftState(cfg),
	}
}

// newSoftState builds the belief layer when the config asks for it.
func newSoftState(cfg sessionConfig) *belief.State {
	if !cfg.soft {
		return nil
	}
	return belief.New(cfg.softThreshold, cfg.errorBudget)
}

// semijoinState is the semijoin-mode counterpart of the engine: the labeled
// row sample, the current consistent witness predicate, and the CONS⋉
// solver whose per-row witness cache and scratch buffers amortize the
// NP-complete informativeness scans across the whole session.
type semijoinState struct {
	u       *Universe
	solver  *semijoin.Solver
	sample  semijoin.Sample
	labeled []bool
	entries []TranscriptEntry
	current Pred
	valid   bool

	// pairPos/pairNeg back the hypothetical samples of the pairwise batch
	// scan, so each of its O(k²) informativeness probes reuses one buffer
	// instead of copying the sample.
	pairPos, pairNeg []int
}

// NewSemijoinSession prepares an interactive semijoin-inference session
// (the Section 7 future-work scenario): questions are single rows of R and
// every informativeness test pays the NP-complete CONS⋉ price, so expect
// exponential worst cases by design. Strategy options are ignored — rows
// are asked in scan order — but WithBudget applies.
func NewSemijoinSession(inst *Instance, opts ...Option) *Session {
	cfg := sessionConfig{stratID: StrategyTD, seed: 1}
	for _, o := range opts {
		o(&cfg)
	}
	return &Session{
		inst: inst,
		cfg:  cfg,
		sj: &semijoinState{
			u:       predicate.NewUniverse(inst),
			solver:  semijoin.NewSolver(inst),
			labeled: make([]bool, inst.R.Len()),
		},
		soft: newSoftState(cfg),
	}
}

// Universe returns Ω for formatting predicates.
func (s *Session) Universe() *Universe {
	if s.sj != nil {
		return s.sj.u
	}
	return s.engine.U
}

// Budget returns the session's question budget (0 = unlimited).
func (s *Session) Budget() int { return s.cfg.budget }

// Questions returns the number of answers recorded so far.
func (s *Session) Questions() int { return s.asked }

// Classes returns the number of T-classes of the product (the worst-case
// number of questions); 0 for semijoin sessions, which have no tractable
// class structure.
func (s *Session) Classes() int {
	if s.sj != nil {
		return 0
	}
	return len(s.engine.Classes())
}

// Done reports whether no informative question remains (halt condition Γ):
// at most one predicate, up to instance equivalence, is consistent with the
// answers. For semijoin sessions this test itself is NP-hard and scans all
// unlabeled rows.
func (s *Session) Done() bool {
	if s.sj != nil {
		done, _ := s.semijoinDone(context.Background())
		return done
	}
	return s.engine.Done()
}

func (s *Session) semijoinDone(ctx context.Context) (bool, error) {
	for ri := range s.sj.labeled {
		if s.sj.labeled[ri] {
			continue
		}
		if err := ctx.Err(); err != nil {
			return false, fmt.Errorf("joininference: %w", err)
		}
		ok, err := s.sj.solver.Informative(s.sj.sample, ri)
		if err != nil {
			return false, fmt.Errorf("joininference: %w", err)
		}
		if ok {
			return false, nil
		}
	}
	return true, nil
}

// strategy resolves the session's configured strategy once.
func (s *Session) strategy() (inference.Strategy, error) {
	if s.strat != nil || s.stratErr != nil {
		return s.strat, s.stratErr
	}
	if s.cfg.custom != nil {
		s.strat = customStrategy{s.cfg.custom}
		return s.strat, nil
	}
	s.strat, s.stratErr = newStrategy(s.cfg.stratID, s.cfg.seed, s.cfg.parallelism, s.rngMark)
	return s.strat, s.stratErr
}

// newStrategy constructs a built-in strategy; workers is the
// WithParallelism knob, honored by the lookahead strategies, and rngPos
// fast-forwards RND's source to a snapshotted position (0 for a fresh
// session).
func newStrategy(id StrategyID, seed int64, workers int, rngPos uint64) (inference.Strategy, error) {
	switch id {
	case StrategyBU:
		return strategy.BottomUp{}, nil
	case StrategyTD:
		return strategy.NewTopDown(), nil
	case StrategyL1S:
		return strategy.Lookahead{K: 1, Workers: workers}, nil
	case StrategyL2S:
		return strategy.Lookahead{K: 2, Workers: workers}, nil
	case StrategyRND:
		return strategy.NewRandomAt(seed, rngPos), nil
	default:
		return nil, fmt.Errorf("%w: %q", ErrUnknownStrategy, id)
	}
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
	// A batch holds at most one question per T-class (per row of R for
	// semijoin sessions), so larger k serves the same questions; clamping
	// keeps batch buffers sized to the instance, not to the caller's k.
	limit := s.Classes()
	if s.sj != nil {
		limit = s.inst.R.Len()
	}
	k = max(min(k, limit), 1)
	if err := ctx.Err(); err != nil {
		return nil, fmt.Errorf("joininference: %w", err)
	}
	if s.cfg.budget > 0 {
		remaining := s.cfg.budget - s.interactions()
		if remaining <= 0 {
			if s.sj != nil {
				done, err := s.semijoinDone(ctx)
				if err != nil {
					return nil, err
				}
				if done {
					return nil, nil
				}
			} else if s.engine.Done() {
				return nil, nil
			}
			return nil, ErrBudgetExhausted
		}
		if k > remaining {
			k = remaining
		}
	}
	// Disputed questions — evidence set aside by a retraction repair — are
	// re-served before anything else: their classes are already decided by
	// the committed sample, so no strategy would ever pick them again, yet
	// resolving them is what corrects a repair that guessed wrong.
	if qs := s.disputedQuestions(k); len(qs) > 0 {
		return qs, nil
	}
	if s.sj != nil {
		return s.semijoinNextQuestions(ctx, k)
	}
	strat, err := s.strategy()
	if err != nil {
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
				qs, served, err := s.servePolicyJoin(ctx, node, prefix, rngBefore, k)
				if served || err != nil {
					s.observe(TelemetryCache, tStart)
					return qs, err
				}
			}
		}
	}
	first, err := nextClass(ctx, strat, s.engine)
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
	picked, complete, err := s.extendBatch(ctx, []int{first}, k)
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

// servePolicyJoin serves a fetch from a cached decision node: fully from
// cache when the node covers k picks, else reusing the cached strategy
// pick (the expensive part) and extending the cheap batch scan live.
// served=false with a nil error falls the caller back to a fully live
// computation — defensive, for nodes that no longer match the engine state
// they claim to describe.
func (s *Session) servePolicyJoin(ctx context.Context, node policy.Node, prefix []byte, rngBefore uint64, k int) ([]Question, bool, error) {
	n := len(s.engine.Classes())
	if node.Chosen >= 0 && (node.Chosen >= n || !s.engine.Informative(node.Chosen)) {
		return nil, false, nil
	}
	for _, ci := range node.Pivots {
		if ci < 0 || ci >= n || !s.engine.Informative(ci) {
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
	picked := make([]int, 0, k)
	picked = append(picked, node.Chosen)
	picked = append(picked, node.Pivots...)
	picked, complete, err := s.extendBatch(ctx, picked, k)
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

// extendBatch grows picked (the strategy's pick plus any pivots already
// selected) to up to k pairwise-informative classes. The greedy scan is
// prefix-stable and rejection is monotone in the picked set, so it resumes
// after the last pivot instead of re-visiting earlier candidates. complete
// reports that the scan exhausted the informative classes — the result
// then serves any batch size.
func (s *Session) extendBatch(ctx context.Context, picked []int, k int) ([]int, bool, error) {
	if len(picked) >= k {
		// Nothing to extend (k=1, the default serving loop): skip the
		// informative-classes scan entirely.
		return picked, false, nil
	}
	after := 0
	if len(picked) > 1 {
		after = picked[len(picked)-1] + 1
	}
	for _, ci := range s.engine.InformativeClasses() {
		if len(picked) >= k {
			return picked, false, nil
		}
		if ci < after || ci == picked[0] {
			continue
		}
		if err := ctx.Err(); err != nil {
			return nil, false, fmt.Errorf("joininference: %w", err)
		}
		if s.pairwiseInformative(ci, picked) {
			picked = append(picked, ci)
		}
	}
	return picked, true, nil
}

// questions materializes the public Questions for the picked classes.
func (s *Session) questions(picked []int) []Question {
	qs := make([]Question, len(picked))
	for i, ci := range picked {
		qs[i] = s.question(ci)
	}
	return qs
}

// nextClass asks the strategy for its pick, routing through the
// context-aware path when the strategy supports cancellation (the lookahead
// strategies do).
func nextClass(ctx context.Context, strat inference.Strategy, e *inference.Engine) (int, error) {
	if cs, ok := strat.(inference.ContextStrategy); ok {
		ci, err := cs.NextCtx(ctx, e)
		if err != nil {
			return -1, fmt.Errorf("joininference: %w", err)
		}
		return ci, nil
	}
	if err := ctx.Err(); err != nil {
		return -1, fmt.Errorf("joininference: %w", err)
	}
	return strat.Next(e), nil
}

// pairwiseInformative reports whether class c stays informative under
// either label of every picked class, and vice versa — the guarantee that
// makes a batch safe to dispatch in parallel.
func (s *Session) pairwiseInformative(c int, picked []int) bool {
	e := s.engine
	tpos := e.TPos()
	negs := e.Negatives()
	cs := e.Classes()
	for _, p := range picked {
		if !s.mutuallyInformative(tpos, negs, cs[p].Theta, cs[c].Theta) {
			return false
		}
	}
	return true
}

// mutuallyInformative reports whether classes with most specific
// predicates a and b each stay informative under either label of the other
// (informativeness is not symmetric, so all four hypotheticals are
// checked). The hypothetical T(S+), negative list, and Lemma 3.4
// intersection all live in session scratch, so the O(k²) probes of a batch
// scan allocate nothing.
func (s *Session) mutuallyInformative(tpos Pred, negs []Pred, a, b Pred) bool {
	for _, pair := range [2][2]Pred{{a, b}, {b, a}} {
		x, y := pair[0], pair[1]
		predicate.IntersectInto(&s.batchTPos, tpos, x)
		if inference.CertainUnderWith(&s.batchInter, s.batchTPos, negs, y) {
			return false
		}
		s.batchNegs = append(append(s.batchNegs[:0], negs...), x)
		if inference.CertainUnderWith(&s.batchInter, tpos, s.batchNegs, y) {
			return false
		}
	}
	return true
}

// question materializes the public Question for class ci.
func (s *Session) question(ci int) Question {
	c := s.engine.Classes()[ci]
	return Question{
		RTuple:           s.inst.R.Tuples[c.RI],
		PTuple:           s.inst.P.Tuples[c.PI],
		RIndex:           c.RI,
		PIndex:           c.PI,
		EquivalentTuples: c.Count,
		classIndex:       ci,
		u:                s.engine.U,
		inst:             s.inst,
	}
}

// semijoinNextQuestions scans R for informative rows (each test is two
// CONS⋉ decisions) and greedily keeps rows that remain informative under
// either answer to the rows already picked. With a policy cache attached,
// a prefix another session already reached skips the NP-complete scans
// entirely: the picked rows are a pure function of the answer prefix.
func (s *Session) semijoinNextQuestions(ctx context.Context, k int) ([]Question, error) {
	tStart := s.telemetryStart()
	pol := s.policyActive()
	var prefix []byte
	if pol != nil {
		prefix, _ = s.policyPrefix()
		if node, hit := pol.Lookup(s.policyTreeKey(), prefix, 0); hit {
			if qs, served, err := s.servePolicySemijoin(ctx, node, prefix, k); served || err != nil {
				s.observe(TelemetryCache, tStart)
				return qs, err
			}
		}
	}
	picked, complete, err := s.semijoinScan(ctx, nil, k)
	if err != nil {
		return nil, err
	}
	if pol != nil {
		pol.Publish(s.policyTreeKey(), prefix, 0, semijoinNode(picked, complete))
	}
	s.observe(TelemetryStrategy, tStart)
	return s.semijoinQuestions(picked), nil
}

// servePolicySemijoin serves a semijoin fetch from a cached node; when the
// node's picks do not cover k, the cached rows seed the scan, which
// resumes after the last of them. served=false falls back to a live scan.
func (s *Session) servePolicySemijoin(ctx context.Context, node policy.Node, prefix []byte, k int) ([]Question, bool, error) {
	if node.Chosen >= 0 && (node.Chosen >= len(s.sj.labeled) || s.sj.labeled[node.Chosen]) {
		return nil, false, nil
	}
	for _, ri := range node.Pivots {
		if ri < 0 || ri >= len(s.sj.labeled) || s.sj.labeled[ri] {
			return nil, false, nil
		}
	}
	if picks, ok := policyPicks(node, k); ok {
		return s.semijoinQuestions(picks), true, nil
	}
	picked := make([]int, 0, k)
	picked = append(picked, node.Chosen)
	picked = append(picked, node.Pivots...)
	picked, complete, err := s.semijoinScan(ctx, picked, k)
	if err != nil {
		return nil, false, err
	}
	s.policyActive().Publish(s.policyTreeKey(), prefix, 0, semijoinNode(picked, complete))
	return s.semijoinQuestions(picked), true, nil
}

// semijoinNode packs a semijoin scan result into a cache node (Chosen -1
// records "no informative row remains at this prefix").
func semijoinNode(picked []int, complete bool) policy.Node {
	n := policy.Node{Chosen: -1, Complete: complete}
	if len(picked) > 0 {
		n.Chosen = picked[0]
		n.Pivots = append([]int(nil), picked[1:]...)
	}
	return n
}

// semijoinScan grows picked to up to k mutually informative unlabeled
// rows. Picks happen in scan order and rejection is monotone in the picked
// set, so the scan resumes after the last already-picked row. complete
// reports that the scan covered all remaining rows.
func (s *Session) semijoinScan(ctx context.Context, picked []int, k int) ([]int, bool, error) {
	start := 0
	if len(picked) > 0 {
		start = picked[len(picked)-1] + 1
	}
	for ri := start; ri < s.inst.R.Len(); ri++ {
		if len(picked) >= k {
			return picked, false, nil
		}
		if s.sj.labeled[ri] {
			continue
		}
		if err := ctx.Err(); err != nil {
			return nil, false, fmt.Errorf("joininference: %w", err)
		}
		ok, err := s.sj.solver.Informative(s.sj.sample, ri)
		if err != nil {
			return nil, false, fmt.Errorf("joininference: %w", err)
		}
		if !ok {
			continue
		}
		if len(picked) > 0 {
			ok, err = s.semijoinPairwise(ri, picked)
			if err != nil {
				return nil, false, err
			}
			if !ok {
				continue
			}
		}
		picked = append(picked, ri)
	}
	return picked, true, nil
}

// semijoinQuestions materializes the public Questions for the picked rows.
func (s *Session) semijoinQuestions(picked []int) []Question {
	qs := make([]Question, len(picked))
	for i, ri := range picked {
		qs[i] = s.semijoinQuestion(ri)
	}
	return qs
}

// semijoinPairwise checks mutual informativeness of row ri against every
// picked row under both labels of either. The hypothetical samples live in
// the session's pair buffers (the solver keeps its own extension scratch,
// so the nesting is safe).
func (s *Session) semijoinPairwise(ri int, picked []int) (bool, error) {
	for _, p := range picked {
		for _, pair := range [2][2]int{{p, ri}, {ri, p}} {
			a, b := pair[0], pair[1]
			base := s.sj.sample
			s.sj.pairPos = append(append(s.sj.pairPos[:0], base.Pos...), a)
			asPos := semijoin.Sample{Pos: s.sj.pairPos, Neg: base.Neg}
			ok, err := s.sj.solver.Informative(asPos, b)
			if err != nil {
				return false, fmt.Errorf("joininference: %w", err)
			}
			if !ok {
				return false, nil
			}
			s.sj.pairNeg = append(append(s.sj.pairNeg[:0], base.Neg...), a)
			asNeg := semijoin.Sample{Pos: base.Pos, Neg: s.sj.pairNeg}
			ok, err = s.sj.solver.Informative(asNeg, b)
			if err != nil {
				return false, fmt.Errorf("joininference: %w", err)
			}
			if !ok {
				return false, nil
			}
		}
	}
	return true, nil
}

func (s *Session) semijoinQuestion(ri int) Question {
	return Question{
		RTuple:           s.inst.R.Tuples[ri],
		RIndex:           ri,
		PIndex:           -1,
		EquivalentTuples: 1,
		classIndex:       -1,
		u:                s.sj.u,
		inst:             s.inst,
	}
}

// Answer records the oracle's label for a question returned by
// NextQuestions (or the deprecated NextQuestion). It returns
// ErrBudgetExhausted when the budget is already spent and ErrInconsistent
// (wrapped) if the labels contradict every candidate predicate. On a soft
// session (WithSoftInference) the answer is one unit-weight vote — see
// AnswerVote for the weighted form.
func (s *Session) Answer(q Question, l Label) error {
	if s.soft != nil {
		return s.AnswerVote(q, l, Vote{})
	}
	if s.cfg.budget > 0 && s.asked >= s.cfg.budget {
		return ErrBudgetExhausted
	}
	if s.sj != nil {
		return s.semijoinAnswer(q, l)
	}
	if q.classIndex < 0 {
		return fmt.Errorf("joininference: question was not produced by this join session")
	}
	if err := s.engine.Label(q.classIndex, l); err != nil {
		if err == inference.ErrInconsistent {
			// Label records the example before detecting inconsistency;
			// roll the engine back so the rejected answer leaves no trace —
			// Transcript and Snapshot must reflect only accepted answers.
			// rngMark stays: the stream position of the last accepted
			// answer is unchanged, so a re-fetched question re-derives
			// identically (same as after ResumeSession).
			tr := s.Transcript()
			if rbErr := s.rebuildJoin(tr[:len(tr)-1]); rbErr != nil {
				return fmt.Errorf("joininference: rolling back inconsistent answer: %w", rbErr)
			}
			return ErrInconsistent
		}
		return fmt.Errorf("joininference: %w", err)
	}
	s.asked++
	s.markRNG()
	return nil
}

// markRNG records the RND source position after a recorded answer, so a
// snapshot resumes the stream exactly there (re-drawing any outstanding
// question identically). Non-RND strategies have no stream to mark.
func (s *Session) markRNG() {
	if r, ok := s.strat.(*strategy.Random); ok {
		s.rngMark = r.Pos()
	}
}

func (s *Session) semijoinAnswer(q Question, l Label) error {
	ri := q.RIndex
	if !q.Semijoin() || ri < 0 || ri >= len(s.sj.labeled) {
		return fmt.Errorf("joininference: question was not produced by this semijoin session")
	}
	if s.sj.labeled[ri] {
		return fmt.Errorf("joininference: row %d already labeled", ri)
	}
	next := semijoin.Sample{Pos: s.sj.sample.Pos, Neg: s.sj.sample.Neg}
	if l == Positive {
		next.Pos = append(append([]int(nil), next.Pos...), ri)
	} else {
		next.Neg = append(append([]int(nil), next.Neg...), ri)
	}
	theta, ok, err := s.sj.solver.Consistent(next)
	if err != nil {
		return fmt.Errorf("joininference: %w", err)
	}
	if !ok {
		return ErrInconsistent
	}
	s.sj.sample = next
	s.sj.labeled[ri] = true
	s.sj.entries = append(s.sj.entries, TranscriptEntry{RIndex: ri, PIndex: -1, Positive: bool(l)})
	s.sj.current = theta
	s.sj.valid = true
	s.asked++
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
// consistent predicates — false once earlier answers decided it. For
// semijoin sessions the test pays two CONS⋉ decisions.
func (s *Session) IsInformative(q Question) bool {
	if s.sj != nil {
		if !q.Semijoin() || q.RIndex < 0 || q.RIndex >= len(s.sj.labeled) || s.sj.labeled[q.RIndex] {
			return false
		}
		ok, err := s.sj.solver.Informative(s.sj.sample, q.RIndex)
		return err == nil && ok
	}
	if q.classIndex < 0 || q.classIndex >= len(s.engine.Classes()) {
		return false
	}
	return s.engine.Informative(q.classIndex)
}

// Inferred returns the current most specific consistent predicate; once
// Done() holds it is instance-equivalent to the oracle's goal. For semijoin
// sessions it is a consistent witness predicate for the answers so far.
func (s *Session) Inferred() Pred {
	if s.sj != nil {
		if !s.sj.valid {
			theta, ok, err := s.sj.solver.Consistent(s.sj.sample)
			if err != nil || !ok {
				return Pred{}
			}
			s.sj.current = theta
			s.sj.valid = true
		}
		return s.sj.current
	}
	return s.engine.Result()
}
