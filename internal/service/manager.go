package service

import (
	"context"
	"crypto/rand"
	"encoding/hex"
	"errors"
	"fmt"
	"log/slog"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	joininference "repro"
	"repro/internal/obs"
	"repro/internal/resilience"
	"repro/internal/store"
)

// Sentinel errors of the service layer.
var (
	// ErrSessionNotFound reports an id the manager does not hold (never
	// created, evicted, or deleted).
	ErrSessionNotFound = errors.New("service: session not found")
	// ErrClosed reports use of a manager after Close.
	ErrClosed = errors.New("service: manager closed")
)

// Params configures a new session. The zero value of each field means the
// root package's default (strategy TD, seed 1, no budget, serial lookahead).
type Params struct {
	// Instance names a registry entry.
	Instance string `json:"instance"`
	// Semijoin selects a semijoin session (questions are single rows of R).
	Semijoin bool `json:"semijoin,omitempty"`
	// Strategy, Seed, Budget, Parallelism mirror the root package options.
	Strategy    joininference.StrategyID `json:"strategy,omitempty"`
	Seed        int64                    `json:"seed,omitempty"`
	Budget      int                      `json:"budget,omitempty"`
	Parallelism int                      `json:"parallelism,omitempty"`
	// SoftThreshold > 0 enables error-tolerant soft inference with that
	// belief threshold (WithSoftInference); ErrorBudget > 0 allows that
	// many committed answers to be retracted on contradiction
	// (WithErrorBudget — which implies soft inference at the default
	// threshold when SoftThreshold is unset).
	SoftThreshold float64 `json:"soft_threshold,omitempty"`
	ErrorBudget   int     `json:"error_budget,omitempty"`
}

// Info is a session's public status.
type Info struct {
	ID       string                   `json:"id"`
	Instance string                   `json:"instance"`
	Semijoin bool                     `json:"semijoin,omitempty"`
	Strategy joininference.StrategyID `json:"strategy,omitempty"`
	Asked    int                      `json:"asked"`
	Budget   int                      `json:"budget,omitempty"`
	// Classes is the number of T-classes (the worst-case number of
	// questions); 0 for semijoin sessions.
	Classes int `json:"classes,omitempty"`
	// Done reports the halt condition Γ: the predicate is determined.
	Done bool `json:"done"`
	// Soft carries the soft layer's counters for error-tolerant sessions;
	// nil for hard sessions.
	Soft *joininference.SoftStats `json:"soft,omitempty"`
}

// Answer is one labeled question coming back from a worker. Worker and
// Weight are meaningful only for soft sessions: they attribute the vote to
// a worker id and scale its belief contribution (0 means unit weight).
// Hard sessions ignore them.
type Answer struct {
	joininference.QuestionRef
	Positive bool    `json:"positive"`
	Worker   string  `json:"worker,omitempty"`
	Weight   float64 `json:"weight,omitempty"`
}

// AnswerResult reports what a batch of answers did to the session.
type AnswerResult struct {
	// Applied counts answers recorded; Skipped counts answers whose
	// question an earlier answer (possibly in the same batch) had already
	// decided — normal in parallel crowd rounds, not an error — or whose
	// row an ingest deleted since the question was fetched.
	Applied int  `json:"applied"`
	Skipped int  `json:"skipped"`
	Asked   int  `json:"asked"`
	Done    bool `json:"done"`
}

// PredicateInfo is the current inference result.
type PredicateInfo struct {
	// Predicate is the inferred predicate in the package's textual form
	// (parseable back with ParsePredicate); "TRUE" is the empty conjunction.
	Predicate string `json:"predicate"`
	// SQL renders it as a runnable join (or semijoin) query.
	SQL   string `json:"sql"`
	Asked int    `json:"asked"`
	Done  bool   `json:"done"`
}

// SessionSnapshot is the service-level durable form of a session: the root
// package's Snapshot plus the instance name needed to rebuild it. This is
// what GET /sessions/{id}/snapshot returns; the store keeps the same
// content in binary form (encodeServiceSnapshot).
type SessionSnapshot struct {
	ID       string                  `json:"id"`
	Instance string                  `json:"instance"`
	Snapshot *joininference.Snapshot `json:"snapshot"`
}

// Options configures a Manager.
type Options struct {
	// TTL evicts sessions idle longer than this on SweepExpired; 0 disables
	// eviction.
	TTL time.Duration
	// Store, when non-nil, persists sessions as compact binary records in
	// the KV store — written through on every state change, on eviction and
	// on Close — and restores them in NewManager. Nil keeps sessions in RAM
	// only. The manager does not own the store — the caller closes it after
	// Close.
	Store store.KV
	// PolicyCache, when non-nil, is shared by every session the manager
	// creates or resumes: sessions over the same instance memoize their
	// strategy's decision tree in it, so the first user of a popular
	// instance pays for the lookahead and later ones hit the cache.
	PolicyCache *joininference.PolicyCache
	// Now overrides the clock (tests); nil means time.Now.
	Now func() time.Time
	// Logger receives restore/persist diagnostics and migration/retraction
	// events as structured records; nil discards them.
	Logger *slog.Logger
	// Obs is the telemetry bundle the manager counts into: its counters
	// and per-question strategy/cache/store latency segments, the policy
	// cache's page-in timings, and the trace spans of Questions/Answer. Nil
	// builds a private NewObs(); either way NewHandler serves it at
	// GET /metrics and GET /debug/trace.
	Obs *Obs
	// RequestTimeout bounds each HTTP request served by NewHandler with a
	// per-request context deadline (reaching the L2S lookahead, which
	// checks cancellation); 0 disables the wrap.
	RequestTimeout time.Duration
	// MaxConcurrent, when positive, bounds in-flight requests per
	// compute-heavy route (session create/resume, questions, answers,
	// ingest); MaxQueue bounds how many more may wait for a slot before new
	// arrivals are shed with 429. Zero MaxConcurrent disables admission
	// control.
	MaxConcurrent int
	MaxQueue      int
	// StoreBreaker, when non-nil alongside Store, is the circuit breaker
	// guarding the persist path (share it with the policy tier via
	// WithTierBreaker so one store-health verdict governs both). Nil with a
	// Store builds a private breaker with the default threshold (5
	// consecutive failures) and cool-off (5s).
	StoreBreaker *resilience.Breaker
}

// minJanitorInterval floors the sweep cadence: a TTL under 4ns would
// otherwise give a zero interval, which time.NewTicker rejects with a panic.
const minJanitorInterval = time.Millisecond

// JanitorInterval resolves the sweep cadence from the TTL: a quarter of
// it, capped at one minute and floored at one millisecond.
func (o Options) JanitorInterval() time.Duration {
	return max(min(o.TTL/4, time.Minute), minJanitorInterval)
}

// Manager owns live sessions: create/answer/snapshot/evict with per-session
// locking — concurrent requests to different sessions proceed in parallel,
// even while one session computes an expensive L2S lookahead — plus TTL
// eviction and store persistence. All methods are safe for concurrent use.
type Manager struct {
	reg  *Registry
	opts Options
	now  func() time.Time
	log  *slog.Logger

	mu       sync.Mutex
	sessions map[string]*managed
	closed   bool

	// breaker guards the store persist path (nil-safe: always closed
	// without a store); pq is the write-behind retry queue its failures
	// feed; stopPersist stops the background re-persist worker.
	breaker     *resilience.Breaker
	pq          *persistQueue
	stopPersist func()
	// gates are the per-route admission gates (empty map without admission
	// control); restoreFails counts boot-restore records that were skipped.
	gates        map[string]*resilience.Gate
	restoreFails atomic.Int64

	// The manager's counters, resolved once in the Obs registry by bind:
	// session lifecycle, questions and answers, migrations, and the
	// soft-inference crowd totals plus their per-worker breakdown.
	created, resumed, evicted, deleted         *obs.Counter
	questions, answers, migrated, retired      *obs.Counter
	votes, commits, retractions                *obs.Counter
	workerVotes, workerAgreed, workerRetracted *obs.CounterVec
}

// CrowdMetrics is the crowd section of Metrics: soft-inference totals
// across every session the manager serves (per-worker counts are the
// crowd_worker_*_total families of GET /metrics).
type CrowdMetrics struct {
	// Votes counts worker votes behind committed answers; Commits and
	// Retractions count soft commit and retraction events.
	Votes       int64
	Commits     int64
	Retractions int64
}

// absorbSoftEvents drains a session's soft commit/retraction events into
// the crowd counters, per worker too (anonymous votes count under the
// empty worker id); callers hold ms.mu.
func (m *Manager) absorbSoftEvents(ms *managed) {
	if !ms.sess.Soft() {
		return
	}
	for _, ev := range ms.sess.SoftEvents() {
		switch ev.Kind {
		case joininference.SoftCommit:
			m.commits.Inc()
			m.votes.Add(int64(len(ev.Votes)))
			for _, v := range ev.Votes {
				m.workerVotes.With(v.Worker).Inc()
				if v.Positive == ev.Positive {
					m.workerAgreed.With(v.Worker).Inc()
				}
			}
		case joininference.SoftRetract:
			m.retractions.Inc()
			for _, v := range ev.Votes {
				m.workerRetracted.With(v.Worker).Inc()
			}
			m.log.Warn("soft answer retracted",
				"session", ms.id, "instance", ms.params.Instance, "votes", len(ev.Votes))
		}
	}
}

// Metrics is an in-process snapshot of the manager's counters, read from
// the same registry GET /metrics renders.
type Metrics struct {
	// SessionsLive counts sessions currently resident in memory.
	SessionsLive int
	// SessionsCreated / SessionsResumed count Create and Resume successes
	// (boot-time restores count as resumes); SessionsEvicted counts TTL
	// sweeps, SessionsDeleted explicit deletions.
	SessionsCreated int64
	SessionsResumed int64
	SessionsEvicted int64
	SessionsDeleted int64
	// QuestionsServed counts questions handed out; AnswersApplied counts
	// answers recorded (skipped answers excluded).
	QuestionsServed int64
	AnswersApplied  int64
	// DeltasIngested counts deltas applied through Ingest;
	// SessionsMigrated counts live sessions carried onto a new instance
	// version at a question boundary; SessionsRetired counts sessions
	// dropped because their answers turned inconsistent under the new data.
	DeltasIngested   int64
	SessionsMigrated int64
	SessionsRetired  int64
	// Crowd reports soft-inference vote outcomes (nil until any soft
	// session has committed or retracted an answer).
	Crowd *CrowdMetrics
}

// Metrics returns the manager's current counters.
func (m *Manager) Metrics() Metrics {
	m.mu.Lock()
	live := len(m.sessions)
	m.mu.Unlock()
	out := Metrics{
		SessionsLive:     live,
		SessionsCreated:  m.created.Value(),
		SessionsResumed:  m.resumed.Value(),
		SessionsEvicted:  m.evicted.Value(),
		SessionsDeleted:  m.deleted.Value(),
		QuestionsServed:  m.questions.Value(),
		AnswersApplied:   m.answers.Value(),
		DeltasIngested:   m.reg.Stats().Ingests,
		SessionsMigrated: m.migrated.Value(),
		SessionsRetired:  m.retired.Value(),
	}
	if commits, retractions := m.commits.Value(), m.retractions.Value(); commits != 0 || retractions != 0 {
		out.Crowd = &CrowdMetrics{Votes: m.votes.Value(), Commits: commits, Retractions: retractions}
	}
	return out
}

// managed pairs a session with its lock and bookkeeping. The manager's map
// lock is never held while a session's lock is awaited, so slow sessions
// do not serialize the service.
type managed struct {
	mu       sync.Mutex
	id       string
	params   Params
	sess     *joininference.Session
	lastUsed time.Time
	gone     bool
	// done caches Session.Done() — for semijoin sessions an NP-hard scan —
	// so status calls don't recompute it; nil = unknown, reset when answers
	// are applied. Guarded by mu.
	done *bool

	// infoMu guards lastInfo: the status as of the last completed
	// operation, served by List when the session is busy mid-operation.
	infoMu   sync.Mutex
	lastInfo Info
}

// NewManager builds a manager over the registry. With a Store it restores
// every persisted session before returning; records that no longer decode
// or resume are skipped (logged, and counted in Health's restore report),
// never fatal — a corrupt snapshot must not take the service down.
func NewManager(reg *Registry, opts Options) (*Manager, error) {
	if opts.Obs == nil {
		opts.Obs = NewObs()
	}
	m := &Manager{
		reg:      reg,
		opts:     opts,
		now:      opts.Now,
		log:      obs.OrDiscard(opts.Logger),
		sessions: make(map[string]*managed),
	}
	if m.now == nil {
		m.now = time.Now
	}
	m.gates = make(map[string]*resilience.Gate)
	if opts.MaxConcurrent > 0 {
		for _, route := range admissionRoutes {
			m.gates[route] = resilience.NewGate(opts.MaxConcurrent, opts.MaxQueue)
		}
	}
	if opts.Store != nil {
		m.breaker = opts.StoreBreaker
		if m.breaker == nil {
			log := m.log
			m.breaker = resilience.NewBreaker(resilience.BreakerOptions{
				OnChange: func(from, to resilience.BreakerState) {
					log.Warn("store breaker state change", "from", from.String(), "to", to.String())
				},
			})
		}
		m.pq = newPersistQueue()
	}
	opts.Obs.bind(m)
	if opts.PolicyCache != nil {
		opts.PolicyCache.SetTelemetry(opts.Obs)
	}
	if opts.Store != nil {
		if err := m.restoreStore(); err != nil {
			return nil, err
		}
		m.stopPersist = m.startPersistWorker()
	}
	return m, nil
}

// Create builds a session over a registered instance and returns its info.
func (m *Manager) Create(p Params) (Info, error) {
	if err := validStrategy(p.Strategy); err != nil {
		return Info{}, err
	}
	entry, err := m.reg.Get(p.Instance)
	if err != nil {
		return Info{}, err
	}
	// Join sessions adopt the entry's T-classes, semijoin sessions its
	// witness table: both are computed once per instance version.
	opts := append(m.sessionOptions(p), joininference.WithPrecomputedClasses(entry.Classes))
	var sess *joininference.Session
	if p.Semijoin {
		sess = joininference.NewSemijoinSession(entry.Inst, opts...)
	} else {
		sess = joininference.NewSession(entry.Inst, opts...)
	}
	// Params the store could not read back (a negative budget, a 2^40
	// error budget) are refused before the session is acknowledged.
	sn, err := sess.Snapshot()
	if err == nil {
		err = sn.Validate()
	}
	if err != nil {
		return Info{}, fmt.Errorf("service: session params: %w", err)
	}
	info, err := m.add("", p, sess)
	if err == nil {
		m.created.Inc()
	}
	return info, err
}

// sessionOptions translates creation params into root-package options,
// attaching the shared policy cache (keyed by the instance's registry
// name) when one is configured.
func (m *Manager) sessionOptions(p Params) []joininference.Option {
	var opts []joininference.Option
	if p.Strategy != "" {
		opts = append(opts, joininference.WithStrategy(p.Strategy))
	}
	if p.Seed != 0 {
		opts = append(opts, joininference.WithSeed(p.Seed))
	}
	if p.Budget != 0 {
		opts = append(opts, joininference.WithBudget(p.Budget))
	}
	if p.Parallelism != 0 {
		opts = append(opts, joininference.WithParallelism(p.Parallelism))
	}
	if p.SoftThreshold > 0 {
		opts = append(opts, joininference.WithSoftInference(p.SoftThreshold))
	}
	if p.ErrorBudget > 0 {
		opts = append(opts, joininference.WithErrorBudget(p.ErrorBudget))
	}
	if m.opts.PolicyCache != nil {
		opts = append(opts, joininference.WithPolicyCache(m.opts.PolicyCache, p.Instance))
	}
	return append(opts, joininference.WithTelemetry(m.opts.Obs))
}

// validStrategy rejects unknown strategy ids at session creation instead of
// at the first question ("" selects the root package's default).
func validStrategy(id joininference.StrategyID) error {
	if id == "" {
		return nil
	}
	for _, known := range joininference.KnownStrategies() {
		if id == known {
			return nil
		}
	}
	return fmt.Errorf("%w: %q", joininference.ErrUnknownStrategy, id)
}

// Resume rebuilds a session from a service snapshot (same determinism
// guarantee as joininference.ResumeSession) and registers it — under its
// original id when still free, else a fresh one.
func (m *Manager) Resume(snap *SessionSnapshot) (Info, error) {
	if snap == nil || snap.Snapshot == nil {
		return Info{}, fmt.Errorf("%w: empty service snapshot", joininference.ErrBadSnapshot)
	}
	// Reject unknown strategy ids now: ResumeSession materializes the
	// strategy lazily, and a zombie session that 400s on every /questions
	// call (and re-restores from the store on every boot) helps nobody.
	if err := validStrategy(snap.Snapshot.Strategy); err != nil {
		return Info{}, err
	}
	entry, err := m.reg.Get(snap.Instance)
	if err != nil {
		return Info{}, err
	}
	opts := []joininference.Option{joininference.WithPrecomputedClasses(entry.Classes)}
	if m.opts.PolicyCache != nil {
		opts = append(opts, joininference.WithPolicyCache(m.opts.PolicyCache, snap.Instance))
	}
	opts = append(opts, joininference.WithTelemetry(m.opts.Obs))
	sess, err := joininference.ResumeSession(entry.Inst, snap.Snapshot, opts...)
	if err != nil {
		return Info{}, err
	}
	p := Params{
		Instance:    snap.Instance,
		Semijoin:    snap.Snapshot.Kind == joininference.SnapshotKindSemijoin,
		Strategy:    snap.Snapshot.Strategy,
		Seed:        snap.Snapshot.Seed,
		Budget:      snap.Snapshot.Budget,
		Parallelism: snap.Snapshot.Parallelism,
	}
	if snap.Snapshot.Soft != nil {
		// ResumeSession already re-enabled the soft layer from the
		// snapshot; mirror it in the params so Info reports it.
		p.SoftThreshold = snap.Snapshot.Soft.Threshold
		p.ErrorBudget = snap.Snapshot.Soft.ErrorBudget
	}
	info, err := m.add(snap.ID, p, sess)
	if err == nil {
		m.resumed.Inc()
	}
	return info, err
}

// WarmPolicy precomputes the policy decision tree of a registered instance
// breadth-first to the given depth (see PolicyCache.Precompute), so the
// first depth questions of future sessions with these params are pure
// cache hits. The params' budget is ignored — warming stops for everyone
// if the tree is cut short — and semijoin trees warm organically as
// sessions run. It returns the number of nodes expanded.
func (m *Manager) WarmPolicy(ctx context.Context, p Params, depth int) (int, error) {
	if m.opts.PolicyCache == nil {
		return 0, fmt.Errorf("service: no policy cache configured")
	}
	if p.Semijoin {
		return 0, fmt.Errorf("service: semijoin policy trees cannot be precomputed")
	}
	if err := validStrategy(p.Strategy); err != nil {
		return 0, err
	}
	entry, err := m.reg.Get(p.Instance)
	if err != nil {
		return 0, err
	}
	p.Budget = 0
	opts := append(m.sessionOptions(p), joininference.WithPrecomputedClasses(entry.Classes))
	return m.opts.PolicyCache.Precompute(ctx, entry.Inst, p.Instance, depth, opts...)
}

// add registers a session under id (or a fresh random id when the
// requested one is malformed or taken) and returns its info.
func (m *Manager) add(id string, p Params, sess *joininference.Session) (Info, error) {
	ms := &managed{params: p, sess: sess, lastUsed: m.now()}
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.closed {
		return Info{}, ErrClosed
	}
	if !validID(id) || m.sessions[id] != nil {
		for {
			id = newID()
			if m.sessions[id] == nil {
				break
			}
		}
	}
	ms.id = id
	m.sessions[id] = ms
	// Write the record through immediately: a session created (or resumed)
	// just before a crash must exist after the restart. Exclusive access —
	// nothing else can reach ms until m.mu drops.
	m.persistLocked(ms)
	return ms.info(), nil
}

func newID() string {
	var b [8]byte
	if _, err := rand.Read(b[:]); err != nil {
		panic(fmt.Sprintf("service: crypto/rand unavailable: %v", err))
	}
	return hex.EncodeToString(b[:])
}

// validID reports whether id has the exact shape newID produces. Ids
// arrive from clients (resume bodies, URL paths) and become store keys
// (store.SessionKey), so anything else — "../../tmp/evil", empty strings,
// arbitrary bytes — is replaced by a fresh id before it can name a record.
func validID(id string) bool {
	if len(id) != 16 {
		return false
	}
	for _, c := range id {
		if (c < '0' || c > '9') && (c < 'a' || c > 'f') {
			return false
		}
	}
	return true
}

// isDone returns the session's halt state through the done cache; callers
// hold ms.mu (or have exclusive access).
func (ms *managed) isDone() bool {
	if ms.done == nil {
		d := ms.sess.Done()
		ms.done = &d
	}
	return *ms.done
}

// info builds the session's status and refreshes the lastInfo cache;
// callers hold ms.mu (or have exclusive access).
func (ms *managed) info() Info {
	in := Info{
		ID:       ms.id,
		Instance: ms.params.Instance,
		Semijoin: ms.params.Semijoin,
		Strategy: ms.params.Strategy,
		Asked:    ms.sess.Questions(),
		Budget:   ms.sess.Budget(),
		Classes:  ms.sess.Classes(),
		Done:     ms.isDone(),
	}
	if ms.sess.Soft() {
		st := ms.sess.SoftStats()
		in.Soft = &st
	}
	ms.infoMu.Lock()
	ms.lastInfo = in
	ms.infoMu.Unlock()
	return in
}

// acquire locks the named session for exclusive use; the caller must call
// release. The manager map lock is dropped before the session lock is
// taken, so a slow session never blocks unrelated requests.
func (m *Manager) acquire(id string) (*managed, error) {
	m.mu.Lock()
	if m.closed {
		m.mu.Unlock()
		return nil, ErrClosed
	}
	ms := m.sessions[id]
	m.mu.Unlock()
	if ms == nil {
		return nil, fmt.Errorf("%w: %q", ErrSessionNotFound, id)
	}
	ms.mu.Lock()
	if ms.gone {
		ms.mu.Unlock()
		return nil, fmt.Errorf("%w: %q", ErrSessionNotFound, id)
	}
	return ms, nil
}

func (m *Manager) release(ms *managed) {
	ms.lastUsed = m.now()
	ms.mu.Unlock()
}

// Get returns the session's status.
func (m *Manager) Get(id string) (Info, error) {
	ms, err := m.acquire(id)
	if err != nil {
		return Info{}, err
	}
	defer m.release(ms)
	return ms.info(), nil
}

// List returns every live session's status, sorted by id.
func (m *Manager) List() []Info {
	m.mu.Lock()
	all := make([]*managed, 0, len(m.sessions))
	for _, ms := range m.sessions {
		all = append(all, ms)
	}
	m.mu.Unlock()
	out := make([]Info, 0, len(all))
	for _, ms := range all {
		// Never wait on a session mid-operation (it may be deep in an L2S
		// lookahead): serve its status as of the last completed operation
		// instead.
		if !ms.mu.TryLock() {
			ms.infoMu.Lock()
			out = append(out, ms.lastInfo)
			ms.infoMu.Unlock()
			continue
		}
		if !ms.gone {
			out = append(out, ms.info())
		}
		ms.mu.Unlock()
	}
	sort.Slice(out, func(i, j int) bool { return out[i].ID < out[j].ID })
	return out
}

// IngestResult reports what one delta did across the service: the new
// instance version and class counts, plus what happened to the shared
// policy cache's memoized decision trees.
type IngestResult struct {
	Instance string `json:"instance"`
	// Version is the instance version the delta produced; Classes the
	// T-class count at that version.
	Version int64 `json:"version"`
	Classes int   `json:"classes"`
	// ClassesMinted / ClassesRetired count T-classes the delta created and
	// emptied.
	ClassesMinted  int `json:"classes_minted"`
	ClassesRetired int `json:"classes_retired"`
	// PolicyTreesDropped / PolicyNodesRetired count the old version's
	// resident trees the shared policy cache dropped, and the nodes they
	// held (both zero without a cache).
	PolicyTreesDropped int `json:"policy_trees_dropped,omitempty"`
	PolicyNodesRetired int `json:"policy_nodes_retired,omitempty"`
}

// Ingest applies one delta to a registered instance: the registry advances
// the data and its T-classes to the next version (persisting the delta when
// a store is attached), the shared policy cache drops the old version's
// memoized trees, and live sessions follow at their next question boundary
// — a session resumed on the new version and one migrated onto it ask
// bit-identical questions.
func (m *Manager) Ingest(name string, d joininference.Delta) (IngestResult, error) {
	m.mu.Lock()
	closed := m.closed
	m.mu.Unlock()
	if closed {
		return IngestResult{}, ErrClosed
	}
	upd, err := m.reg.Ingest(name, d)
	if err != nil {
		return IngestResult{}, err
	}
	res := IngestResult{
		Instance:       name,
		Version:        upd.Version(),
		Classes:        upd.Classes.Len(),
		ClassesMinted:  upd.ClassesMinted(),
		ClassesRetired: upd.ClassesRetired(),
	}
	if m.opts.PolicyCache != nil {
		inv := m.opts.PolicyCache.ApplyUpdate(name, upd)
		res.PolicyTreesDropped = inv.TreesDropped
		res.PolicyNodesRetired = inv.NodesRetired
	}
	return res, nil
}

// migrateLocked moves the session onto its instance's current version when
// ingests have advanced it, in one replay however many versions it missed
// (Session.MoveTo). Sessions migrate at question boundaries (Questions,
// Answer) — status, predicate and snapshot reads serve the version the
// session last interacted on. A session that cannot move (its surviving
// answers turn inconsistent under the new data, as when a semijoin positive
// loses its last witness) is retired: removed from the manager with its
// persisted copy, and the caller's request fails with the underlying
// error (ErrInconsistent). Callers hold ms.mu.
func (m *Manager) migrateLocked(ms *managed) error {
	entry, err := m.reg.Get(ms.params.Instance)
	if err != nil {
		return err
	}
	from := ms.sess.InstanceVersion()
	if entry.Inst.Version() == from {
		return nil
	}
	if err := ms.sess.MoveTo(entry.Inst, entry.Classes); err != nil {
		m.retireLocked(ms)
		m.log.Warn("session retired: inconsistent under new data",
			"session", ms.id, "instance", ms.params.Instance,
			"version", entry.Inst.Version(), "err", err)
		return fmt.Errorf("service: session %s cannot follow instance %q to version %d: %w",
			ms.id, ms.params.Instance, entry.Inst.Version(), err)
	}
	ms.done = nil
	ms.info()
	m.migrated.Inc()
	m.log.Info("session migrated",
		"session", ms.id, "instance", ms.params.Instance,
		"from", from, "version", entry.Inst.Version())
	m.persistLocked(ms)
	return nil
}

// retireLocked removes a session that can no longer serve, deleting its
// persisted copy so it does not resurrect on the next boot. Callers hold
// ms.mu (which stays held — the caller's release unlocks it).
func (m *Manager) retireLocked(ms *managed) {
	ms.gone = true
	m.mu.Lock()
	delete(m.sessions, ms.id)
	m.mu.Unlock()
	m.retired.Inc()
	if m.opts.Store != nil {
		if err := m.opts.Store.Delete(store.SessionKey(ms.id)); err != nil {
			m.log.Warn("removing persisted session failed", "session", ms.id, "err", err)
		}
	}
}

// Questions returns up to k pairwise-informative questions for parallel
// dispatch. The context cancels mid-computation (including inside an L2S
// lookahead). An empty slice means the session is done.
func (m *Manager) Questions(ctx context.Context, id string, k int) ([]joininference.Question, error) {
	sp := m.opts.Obs.Tracer.StartLeaf(ctx, "session.questions")
	sp.SetSession(id)
	defer sp.End()
	ms, err := m.acquire(id)
	if err != nil {
		sp.SetError(err)
		return nil, err
	}
	defer m.release(ms)
	// The request's deadline may have expired while waiting for the session
	// lock; honor it before computing anything (cheap strategies never
	// check ctx themselves).
	if err := ctx.Err(); err != nil {
		sp.SetError(err)
		return nil, err
	}
	if err := m.migrateLocked(ms); err != nil {
		sp.SetError(err)
		return nil, err
	}
	qs, err := ms.sess.NextQuestions(ctx, k)
	sp.SetError(err)
	if err == nil {
		// NextQuestions just answered the done question for free.
		d := len(qs) == 0
		ms.done = &d
		ms.info()
		m.questions.Add(int64(len(qs)))
	}
	return qs, err
}

// Answer applies a batch of labeled questions. Answers whose question an
// earlier answer already decided are skipped and counted, mirroring
// Session.AnswerBatch; a ref that does not address the instance at all is
// an error.
func (m *Manager) Answer(ctx context.Context, id string, answers []Answer) (AnswerResult, error) {
	sp := m.opts.Obs.Tracer.StartLeaf(ctx, "session.answers")
	sp.SetSession(id)
	defer sp.End()
	ms, err := m.acquire(id)
	if err != nil {
		sp.SetError(err)
		return AnswerResult{}, err
	}
	defer m.release(ms)
	if err := ctx.Err(); err != nil {
		sp.SetError(err)
		return AnswerResult{}, err
	}
	if err := m.migrateLocked(ms); err != nil {
		sp.SetError(err)
		return AnswerResult{}, err
	}
	var res AnswerResult
	// Store-backed sessions persist on every applied answer, not just at
	// eviction/shutdown: a kill -9 then restart loses nothing that was
	// acked. Registered after the release defer, so it runs while ms.mu is
	// still held — and on early-return errors too, which may have applied a
	// prefix of the batch. This is the per-question "store" latency segment.
	defer func() {
		if res.Applied > 0 {
			m.persistLockedTimed(ms)
		}
	}()
	// Resolve every ref before applying anything, so a malformed ref
	// rejects the whole batch instead of leaving it half-recorded (the
	// client could not tell which half).
	qs := make([]joininference.Question, len(answers))
	for i, a := range answers {
		q, err := ms.sess.QuestionByRef(a.QuestionRef)
		if err != nil {
			sp.SetError(err)
			return res, err
		}
		qs[i] = q
	}
	soft := ms.sess.Soft()
	// Soft sessions emit commit/retraction events as votes apply; fold
	// them into the service-wide crowd counters even when the batch fails
	// partway (the applied prefix produced real events). Registered while
	// ms.mu is still held.
	if soft {
		defer m.absorbSoftEvents(ms)
	}
	for i, a := range answers {
		if err := ctx.Err(); err != nil {
			sp.SetError(err)
			return res, err
		}
		if !ms.sess.IsInformative(qs[i]) {
			res.Skipped++
			continue
		}
		label := joininference.Negative
		if a.Positive {
			label = joininference.Positive
		}
		var err error
		if soft {
			// Route through the belief layer: the vote accumulates and
			// commits only when the class's belief clears the threshold.
			err = ms.sess.AnswerVote(qs[i], label, joininference.Vote{Worker: a.Worker, Weight: a.Weight})
		} else {
			err = ms.sess.Answer(qs[i], label)
		}
		if err != nil {
			sp.SetError(err)
			return res, err
		}
		res.Applied++
		// Count (and invalidate Done) immediately, not after the loop: an
		// early return — cancellation, a later bad answer — must not leave a
		// stale Done or an answers_applied count below what the session
		// actually recorded.
		m.answers.Inc()
		ms.done = nil
	}
	res.Asked = ms.sess.Questions()
	res.Done = ms.isDone()
	ms.info()
	return res, nil
}

// Explanation is a session's answer-attribution report: a Banzhaf-style
// contribution score per committed answer ("why did you infer this
// join?"), plus the soft layer's counters when the session is error-
// tolerant. Served by GET /sessions/{id}/explain.
type Explanation struct {
	ID           string                            `json:"id"`
	Attributions []joininference.AnswerAttribution `json:"attributions"`
	Soft         *joininference.SoftStats          `json:"soft,omitempty"`
}

// Explain returns the session's per-answer attribution report.
func (m *Manager) Explain(id string) (*Explanation, error) {
	ms, err := m.acquire(id)
	if err != nil {
		return nil, err
	}
	defer m.release(ms)
	out := &Explanation{ID: id, Attributions: ms.sess.Explain()}
	if ms.sess.Soft() {
		st := ms.sess.SoftStats()
		out.Soft = &st
	}
	return out, nil
}

// Predicate returns the current inferred predicate (text and SQL).
func (m *Manager) Predicate(id string) (PredicateInfo, error) {
	ms, err := m.acquire(id)
	if err != nil {
		return PredicateInfo{}, err
	}
	defer m.release(ms)
	u := ms.sess.Universe()
	p := ms.sess.Inferred()
	// Format renders ∅ for people ("⊤ (empty predicate)"); the wire form
	// must parse back, so the empty conjunction is "TRUE".
	text := "TRUE"
	if !p.IsEmpty() {
		text = p.Format(u)
	}
	return PredicateInfo{
		Predicate: text,
		SQL:       joininference.SQL(u, p, ms.params.Semijoin, false),
		Asked:     ms.sess.Questions(),
		Done:      ms.isDone(),
	}, nil
}

// Snapshot captures the session's durable state without disturbing it.
func (m *Manager) Snapshot(id string) (*SessionSnapshot, error) {
	ms, err := m.acquire(id)
	if err != nil {
		return nil, err
	}
	defer m.release(ms)
	return ms.snapshotLocked()
}

// snapshotLocked builds the service snapshot; callers hold ms.mu.
func (ms *managed) snapshotLocked() (*SessionSnapshot, error) {
	sn, err := ms.sess.Snapshot()
	if err != nil {
		return nil, err
	}
	return &SessionSnapshot{ID: ms.id, Instance: ms.params.Instance, Snapshot: sn}, nil
}

// Delete removes a session the client is done with, discarding any
// persisted copy (deletion is explicit abandonment — unlike TTL eviction,
// which persists first). A session that only exists as a TTL-evicted
// record in the store is deletable too: its record is removed so it does
// not resurrect on the next boot.
func (m *Manager) Delete(id string) error {
	ms, err := m.acquire(id)
	if err != nil {
		if errors.Is(err, ErrSessionNotFound) && validID(id) && m.opts.Store != nil {
			if _, ok, _ := m.opts.Store.Get(store.SessionKey(id)); ok {
				if rmErr := m.opts.Store.Delete(store.SessionKey(id)); rmErr == nil {
					m.deleted.Inc()
					return nil
				}
			}
		}
		return err
	}
	ms.gone = true
	ms.mu.Unlock()
	m.mu.Lock()
	delete(m.sessions, id)
	m.mu.Unlock()
	m.deleted.Inc()
	if m.opts.Store != nil {
		if err := m.opts.Store.Delete(store.SessionKey(id)); err != nil {
			m.log.Warn("removing persisted session failed", "session", id, "err", err)
		}
	}
	return nil
}

// SweepExpired evicts sessions idle past the TTL, persisting each first
// when a Store is configured, and returns how many were evicted.
func (m *Manager) SweepExpired() int {
	if m.opts.TTL <= 0 {
		return 0
	}
	cutoff := m.now().Add(-m.opts.TTL)
	m.mu.Lock()
	candidates := make([]*managed, 0, len(m.sessions))
	for _, ms := range m.sessions {
		candidates = append(candidates, ms)
	}
	m.mu.Unlock()
	evicted := 0
	for _, ms := range candidates {
		// A session whose lock is held is in use right now — by definition
		// not idle; never let the janitor queue behind a long lookahead.
		if !ms.mu.TryLock() {
			continue
		}
		if ms.gone || !ms.lastUsed.Before(cutoff) {
			ms.mu.Unlock()
			continue
		}
		if !m.persistLocked(ms) {
			// The store refused the snapshot (breaker open or a live
			// failure): the RAM copy is the only good copy, so the session
			// stays resident — degraded mode trades memory for never losing
			// an answered session. The write-behind worker (and the next
			// sweep) will retry.
			ms.mu.Unlock()
			continue
		}
		ms.gone = true
		ms.mu.Unlock()
		m.mu.Lock()
		delete(m.sessions, ms.id)
		m.mu.Unlock()
		m.evicted.Inc()
		evicted++
	}
	if evicted > 0 && m.opts.Store != nil {
		// One fsync per sweep makes evicted snapshots machine-crash durable
		// without paying it per session.
		if err := m.opts.Store.Sync(); err != nil {
			m.log.Warn("syncing store after sweep failed", "err", err)
		}
	}
	return evicted
}

// StartJanitor sweeps expired sessions every interval until the returned
// stop function is called.
func (m *Manager) StartJanitor(interval time.Duration) (stop func()) {
	done := make(chan struct{})
	go func() {
		t := time.NewTicker(interval)
		defer t.Stop()
		for {
			select {
			case <-t.C:
				m.SweepExpired()
			case <-done:
				return
			}
		}
	}()
	var once sync.Once
	return func() { once.Do(func() { close(done) }) }
}

// Close persists every live session (when a store is configured) and
// shuts the manager; subsequent calls fail with ErrClosed. The context
// bounds how long persistence may take. Unlike List/SweepExpired, Close
// deliberately waits for each session's in-flight operation to finish —
// skipping one would lose its latest answers; callers drain request
// traffic first (cmd/joinserve runs http.Server.Shutdown before Close).
//
// With a store, Close also drains the write-behind queue: every session is
// persisted directly (bypassing the breaker — shutdown is the final
// probe), and store failures are retried with backoff until they succeed
// or the context expires; sessions that fail to snapshot are not retried
// (the failure is deterministic) but still produce an error. An error
// return means some sessions exist only in the process's dying memory —
// the operator's signal to keep the disk.
func (m *Manager) Close(ctx context.Context) error {
	m.mu.Lock()
	if m.closed {
		m.mu.Unlock()
		return ErrClosed
	}
	m.closed = true
	all := make([]*managed, 0, len(m.sessions))
	for _, ms := range m.sessions {
		all = append(all, ms)
	}
	m.sessions = make(map[string]*managed)
	m.mu.Unlock()
	if m.stopPersist != nil {
		m.stopPersist()
	}
	var failed []*managed
	lost := 0 // unsnapshotable sessions: retrying cannot help, but report them
	for _, ms := range all {
		if err := ctx.Err(); err != nil {
			return err
		}
		ms.mu.Lock()
		if !ms.gone {
			if m.opts.Store != nil {
				switch m.persistStoreDirect(ms) {
				case persistOK:
				case persistUnsnapshotable:
					lost++
				default:
					failed = append(failed, ms)
				}
			}
			ms.gone = true
		}
		ms.mu.Unlock()
	}
	// Drain: re-persist failures with backoff until the context gives up.
	bo := resilience.Backoff{Base: 25 * time.Millisecond, Max: 500 * time.Millisecond}
	for attempt := 0; len(failed) > 0; attempt++ {
		t := time.NewTimer(bo.Delay(attempt, nil))
		select {
		case <-ctx.Done():
			t.Stop()
			return fmt.Errorf("service: %d session(s) not persisted at shutdown: %w", len(failed), ctx.Err())
		case <-t.C:
		}
		still := failed[:0]
		for _, ms := range failed {
			ms.mu.Lock()
			out := m.persistStoreDirect(ms)
			ms.mu.Unlock()
			switch out {
			case persistOK:
			case persistUnsnapshotable:
				lost++
			default:
				still = append(still, ms)
			}
		}
		failed = still
	}
	if m.opts.Store != nil && len(all) > 0 {
		// One fsync covers the whole shutdown batch.
		if err := m.opts.Store.Sync(); err != nil {
			return fmt.Errorf("service: syncing store: %w", err)
		}
	}
	if lost > 0 {
		return fmt.Errorf("service: %d session(s) could not be snapshotted at shutdown", lost)
	}
	return nil
}

// persistLocked writes the session's record through to the store (binary,
// via the breaker — failures queue for write-behind retry); callers hold
// ms.mu (or have exclusive access). Reports whether the record is durably
// written now (always true without a store — there is nothing to lose).
func (m *Manager) persistLocked(ms *managed) bool {
	return m.opts.Store == nil || m.persistStoreLocked(ms)
}

// persistLockedTimed is persistLocked plus the per-question "store" latency
// segment (question_segment_seconds{segment="store"}) — used on the answer
// path, where the persist is part of what the client waits for.
func (m *Manager) persistLockedTimed(ms *managed) {
	if m.opts.Store != nil {
		defer m.opts.Obs.segStore.ObserveSince(time.Now())
	}
	m.persistLocked(ms)
}

// restoreStore resumes every session record in the store. Records that
// fail to decode or resume are skipped with a log line, never fatal — a
// corrupt snapshot must not take the service down.
func (m *Manager) restoreStore() error {
	type rec struct {
		id   string
		data []byte
	}
	var recs []rec
	err := m.opts.Store.Scan(store.SessionPrefix(), func(key, value []byte) bool {
		id, err := store.SessionID(key)
		if err != nil {
			m.log.Warn("restoring session record failed", "err", err)
			m.restoreFails.Add(1)
			return true
		}
		// Copy out: Resume replays whole transcripts, far too slow to run
		// under the store's scan (whose buffers are per-call anyway).
		recs = append(recs, rec{id: id, data: append([]byte(nil), value...)})
		return true
	})
	if err != nil {
		return fmt.Errorf("service: scanning store: %w", err)
	}
	for _, r := range recs {
		snap, err := decodeServiceSnapshot(r.data)
		if err != nil {
			m.log.Warn("decoding session failed", "session", r.id, "err", err)
			m.restoreFails.Add(1)
			continue
		}
		if snap.ID != r.id {
			m.log.Warn("session record id mismatch; using the key",
				"key_id", r.id, "record_id", snap.ID)
			snap.ID = r.id
		}
		if _, err := m.Resume(snap); err != nil {
			m.log.Warn("restoring session failed", "session", r.id, "err", err)
			m.restoreFails.Add(1)
			continue
		}
	}
	return nil
}
