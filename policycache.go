package joininference

import (
	"context"
	"errors"
	"fmt"
	"sync/atomic"
	"time"

	"repro/internal/policy"
	"repro/internal/pool"
	"repro/internal/resilience"
	"repro/internal/store"
)

// PolicyCache memoizes the strategy decision tree across sessions: for a
// fixed instance and strategy configuration the interaction is fully
// deterministic, so the class a strategy picks (and the pivots a batch
// fetch selects) is a pure function of the answer prefix. Sessions
// attached with WithPolicyCache consult the cache before invoking their
// strategy and publish the computed choice after, so the first session to
// reach a prefix pays for the lookahead (or, for semijoin sessions, the
// NP-complete CONS⋉ scans) and every later one resolves it with a map
// lookup. Cached and uncached sessions ask bit-identical question
// sequences — including StrategyRND, whose stream position is recorded per
// node and fast-forwarded on a hit.
//
// The cache is bounded (LRU node eviction with byte accounting) and safe
// for concurrent use by any number of sessions; a node evicted mid-walk
// simply falls back to live strategy computation and is republished.
//
// Key design: trees are keyed by (instance id, strategy id, seed). The
// seed is in the key because RND's walk depends on it (it is normalized to
// 0 for the deterministic strategies, so their sessions share one tree
// regardless of the configured seed). The parallelism knob
// (WithParallelism) is deliberately NOT in the key: the worker-pool
// reduction applies the exact serial selection rule, so strategy picks are
// bit-identical at any worker count and a choice computed at one
// parallelism serves sessions running at another. The budget is not in the
// key either — it caps how many questions a session accepts, never which
// question comes next.
type PolicyCache struct {
	c *policy.Cache
	// tel receives tier-2 page-in timings (TelemetryPageIn); set before
	// serving via SetTelemetry, read through an atomic so AttachStore and
	// SetTelemetry may happen in either order.
	tel atomic.Pointer[Telemetry]
}

// NewPolicyCache returns an empty policy cache bounded to roughly maxBytes
// of node state (LRU eviction); maxBytes ≤ 0 means unbounded.
func NewPolicyCache(maxBytes int64) *PolicyCache {
	return &PolicyCache{c: policy.New(maxBytes)}
}

// AttachStore backs the cache with a persistent store tier: every
// published node is written through, an LRU miss pages the stored subtree
// back in by prefix scan, and warm trees survive both eviction and process
// restarts — the byte bound then sizes the working set, not the tree.
// readahead bounds how many nodes one miss pages in (≤ 0 selects the
// default). Attach before sharing the cache across sessions.
func (pc *PolicyCache) AttachStore(kv store.KV, readahead int, opts ...StoreTierOption) {
	tier := store.NewPolicyTier(kv, readahead)
	for _, opt := range opts {
		opt(tier)
	}
	pc.c.SetTier2(timedTier{inner: tier, pc: pc})
}

// StoreTierOption customizes the store-backed tier built by AttachStore.
type StoreTierOption func(*store.PolicyTier)

// WithTierBreaker circuit-breaks the store tier: while the breaker is open
// every lookup is an LRU-only miss and every write-through is skipped, so a
// failing store degrades the cache to live recomputation instead of
// stalling the question path. Share the breaker with the session persist
// path so one store-health verdict governs both.
func WithTierBreaker(br *resilience.Breaker) StoreTierOption {
	return func(t *store.PolicyTier) { t.SetBreaker(br) }
}

// SetTelemetry attaches a telemetry sink to the cache: every tier-2
// page-in (an LRU miss streaming a stored subtree back into RAM) reports
// its latency as TelemetryPageIn. Safe to call before or after
// AttachStore, but not concurrently with serving traffic's first use.
func (pc *PolicyCache) SetTelemetry(t Telemetry) {
	if t == nil {
		pc.tel.Store(nil)
		return
	}
	pc.tel.Store(&t)
}

// timedTier decorates the store-backed tier with page-in latency
// reporting. Load and Save stay untimed: they are single-record KV
// operations, already covered by the store's own op timings.
type timedTier struct {
	inner policy.Tier2
	pc    *PolicyCache
}

func (t timedTier) Load(k policy.Key, prefix []byte, rngPos uint64) (policy.Node, bool) {
	return t.inner.Load(k, prefix, rngPos)
}

func (t timedTier) Save(k policy.Key, prefix []byte, rngPos uint64, n policy.Node) {
	t.inner.Save(k, prefix, rngPos, n)
}

func (t timedTier) PageIn(k policy.Key, prefix []byte, insert func(prefix []byte, rngPos uint64, n policy.Node) bool) {
	tel := t.pc.tel.Load()
	if tel == nil {
		t.inner.PageIn(k, prefix, insert)
		return
	}
	start := time.Now()
	t.inner.PageIn(k, prefix, insert)
	(*tel).Observe(TelemetryPageIn, time.Since(start))
}

// PolicyCacheStats is a point-in-time snapshot of a cache's counters.
type PolicyCacheStats struct {
	// Hits and Misses count lookups; Publishes counts nodes written;
	// Evictions counts nodes dropped to honor the byte bound.
	Hits      uint64 `json:"hits"`
	Misses    uint64 `json:"misses"`
	Publishes uint64 `json:"publishes"`
	Evictions uint64 `json:"evictions"`
	// Tier2Hits counts lookups that missed the LRU but were served by the
	// attached store tier; PageIns counts nodes the store streamed into the
	// LRU (hits plus readahead). Both stay 0 without AttachStore.
	Tier2Hits uint64 `json:"tier2_hits,omitempty"`
	PageIns   uint64 `json:"page_ins,omitempty"`
	// Invalidated counts nodes that instance updates
	// (PolicyCache.ApplyUpdate) dropped with their old version's trees.
	Invalidated uint64 `json:"invalidated,omitempty"`
	// Migrated is always 0: an instance update drops the old version's
	// trees and carries none onto the new version. The field stays only
	// because joinbench still reads it; it goes when joinbench stops.
	Migrated uint64 `json:"migrated,omitempty"`
	// Nodes and Bytes are current residency; MaxBytes is the bound
	// (0 = unbounded).
	Nodes    int   `json:"nodes"`
	Bytes    int64 `json:"bytes"`
	MaxBytes int64 `json:"max_bytes"`
}

// Stats returns the cache's counters.
func (pc *PolicyCache) Stats() PolicyCacheStats {
	st := pc.c.Stats()
	return PolicyCacheStats{
		Hits:        st.Hits,
		Misses:      st.Misses,
		Publishes:   st.Publishes,
		Evictions:   st.Evictions,
		Tier2Hits:   st.Tier2Hits,
		PageIns:     st.PageIns,
		Invalidated: st.Invalidated,
		Nodes:       st.Nodes,
		Bytes:       st.Bytes,
		MaxBytes:    st.MaxBytes,
	}
}

// WithPolicyCache attaches a shared policy cache to the session.
// instanceID must uniquely name the instance's data — sessions over
// different data must never share an id (the service registry's names
// qualify). Sessions with a custom strategy (WithCustomStrategy) ignore
// the cache: a caller-implemented Strategy may be nondeterministic.
func WithPolicyCache(pc *PolicyCache, instanceID string) Option {
	return func(c *sessionConfig) {
		c.policy = pc
		c.policyInstance = instanceID
	}
}

// policySemijoinStrategy marks the decision tree of semijoin sessions,
// whose scan-order picks ignore the configured strategy (and seed).
const policySemijoinStrategy = "⋉"

// policyActive returns the underlying cache when this session may use it.
func (s *Session) policyActive() *policy.Cache {
	if s.cfg.policy == nil || s.cfg.custom != nil {
		return nil
	}
	return s.cfg.policy.c
}

// policyTreeKey identifies this session's decision tree. The instance
// version is in the key — a session moved onto a new version (MoveTo)
// automatically reads and writes the new version's tree.
// The seed is normalized to 0 for everything but RND, so
// deterministic-strategy sessions share one tree regardless of the
// configured seed.
func (s *Session) policyTreeKey() policy.Key {
	k := policy.Key{Instance: s.cfg.policyInstance, Version: s.inst.Version(), Strategy: string(s.cfg.stratID)}
	switch {
	case s.kern.kind() == SnapshotKindSemijoin:
		k.Strategy = policySemijoinStrategy
	case s.cfg.stratID == StrategyRND:
		k.Seed = s.cfg.seed
	}
	return k
}

// policyPrefix encodes the session's answer prefix — the ordered
// (key, label) pairs recorded so far — as a node key. It is derived from
// the transcript on every fetch (O(answers), trivial next to a strategy
// invocation) so Undo and the inconsistent-answer rollback can never leave
// a stale key behind.
func (s *Session) policyPrefix() ([]byte, bool) {
	var buf []byte
	for _, e := range s.kern.transcript() {
		key := s.entryKey(e)
		if key < 0 {
			return nil, false
		}
		buf = policy.AppendEdge(buf, key, e.Positive)
	}
	return buf, true
}

// policyRNGPos returns the RND stream position (0 for the deterministic
// strategies). Keying nodes by position keeps sessions whose streams
// diverged from the canonical fetch-once walk (extra unanswered fetches,
// Undo) on separate node variants instead of poisoning each other's.
func (s *Session) policyRNGPos() uint64 {
	if r, _ := s.kern.random(); r != nil {
		return r.Pos()
	}
	return 0
}

// policySkipRNG fast-forwards the RND stream past the draw a cached pick
// replaced, so a later cache miss draws exactly where a live walk would.
func (s *Session) policySkipRNG(pos uint64) {
	if r, _ := s.kern.random(); r != nil {
		r.SkipTo(pos)
	}
}

// policyPicks resolves a cached node against a request for k questions:
// the node serves the request when it covers k picks or its batch scan ran
// to completion.
func policyPicks(n policy.Node, k int) ([]int, bool) {
	if n.Chosen < 0 {
		return nil, true
	}
	total := 1 + len(n.Pivots)
	if k > total && !n.Complete {
		return nil, false
	}
	if k > total {
		k = total
	}
	picks := make([]int, k)
	picks[0] = n.Chosen
	copy(picks[1:], n.Pivots)
	return picks, true
}

// Precompute warms the cache by expanding the decision tree of join
// sessions over inst breadth-first: every answer prefix reachable within
// depth answers gets its strategy choice computed and published, so the
// first depth questions of any future session (under the same strategy
// options) are pure cache hits. Node expansions at each level fan across
// the worker pool according to WithParallelism — note that lookahead
// strategies also use that knob internally, so effective goroutine counts
// multiply. The frontier doubles per level (minus branches that reach the
// halt condition), so keep depth modest: the tree to depth d has at most
// 2^d−1 internal nodes.
//
// opts mirror the session options the warmed sessions will use;
// WithPolicyCache is implied and T-classes are precomputed once when opts
// do not already carry WithPrecomputedClasses. It returns the number of
// nodes expanded. Semijoin trees are not precomputed — they warm
// organically as sessions run.
func (pc *PolicyCache) Precompute(ctx context.Context, inst *Instance, instanceID string, depth int, opts ...Option) (int, error) {
	var cfg sessionConfig
	for _, o := range opts {
		o(&cfg)
	}
	if cfg.custom != nil {
		return 0, fmt.Errorf("joininference: cannot precompute a custom strategy")
	}
	all := append(append([]Option(nil), opts...), WithPolicyCache(pc, instanceID))
	if cfg.classes == nil {
		all = append(all, WithPrecomputedClasses(PrecomputeClasses(inst)))
	}
	var expanded atomic.Int64
	frontier := [][]TranscriptEntry{nil}
	for d := 0; d < depth && len(frontier) > 0; d++ {
		children := make([][][]TranscriptEntry, len(frontier))
		errs := make([]error, len(frontier))
		err := pool.ForEach(ctx, cfg.parallelism, len(frontier), func(i int) {
			children[i], errs[i] = expandPolicyNode(ctx, inst, all, frontier[i], &expanded)
		})
		if err != nil {
			return int(expanded.Load()), fmt.Errorf("joininference: %w", err)
		}
		var next [][]TranscriptEntry
		for i, cs := range children {
			if errs[i] != nil {
				return int(expanded.Load()), errs[i]
			}
			next = append(next, cs...)
		}
		frontier = next
	}
	return int(expanded.Load()), nil
}

// expandPolicyNode replays one answer prefix into a fresh cached session,
// computes (and thereby publishes) the strategy choice at that prefix, and
// returns the two child prefixes — or none at a leaf (halt condition
// reached, budget spent, or a branch no predicate is consistent with).
// Each replayed answer is preceded by a fetch: the fetch is a cache hit on
// the node published at the previous level, and for RND it advances the
// stream to the canonical position a live walk would hold.
func expandPolicyNode(ctx context.Context, inst *Instance, opts []Option, entries []TranscriptEntry, expanded *atomic.Int64) ([][]TranscriptEntry, error) {
	s := NewSession(inst, opts...)
	for _, e := range entries {
		if _, err := s.NextQuestions(ctx, 1); err != nil {
			if errors.Is(err, ErrBudgetExhausted) {
				return nil, nil
			}
			return nil, err
		}
		q, err := s.QuestionByRef(QuestionRef{RIndex: e.RIndex, PIndex: e.PIndex})
		if err != nil {
			return nil, err
		}
		if err := s.Answer(q, Label(e.Positive)); err != nil {
			if errors.Is(err, ErrInconsistent) || errors.Is(err, ErrBudgetExhausted) {
				return nil, nil
			}
			return nil, err
		}
	}
	qs, err := s.NextQuestions(ctx, 1)
	if err != nil {
		if errors.Is(err, ErrBudgetExhausted) {
			return nil, nil
		}
		return nil, err
	}
	expanded.Add(1)
	if len(qs) == 0 {
		return nil, nil
	}
	ref := qs[0].Ref()
	branch := func(positive bool) []TranscriptEntry {
		child := make([]TranscriptEntry, 0, len(entries)+1)
		child = append(child, entries...)
		return append(child, TranscriptEntry{RIndex: ref.RIndex, PIndex: ref.PIndex, Positive: positive})
	}
	return [][]TranscriptEntry{branch(true), branch(false)}, nil
}
