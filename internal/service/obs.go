package service

import (
	"time"

	joininference "repro"
	"repro/internal/obs"
)

// Obs bundles the telemetry backends the service layer reports into: a
// metric registry (served at GET /metrics in Prometheus text form), a span
// tracer (GET /debug/trace, optional JSONL sink), and the HTTP middleware
// instruments. Every manager has one: NewManager builds a private bundle
// when Options.Obs is nil. The manager's own counters live in the
// registry, so managers over a shared bundle — a restart in one process —
// keep counting where the previous one stopped: counters stay monotonic
// across the restart.
type Obs struct {
	// Metrics is the registry behind GET /metrics; Tracer records spans for
	// GET /debug/trace (replaceable before wiring, e.g. for a larger ring).
	Metrics *obs.Registry
	Tracer  *obs.Tracer
	// HTTP are the middleware's per-route instruments.
	HTTP *obs.HTTPMetrics

	// Pre-resolved children of the hot-path families, so an observation is
	// two atomic adds with no map lookup:
	//
	//	question_segment_seconds{segment="strategy"|"cache"|"store"}
	//	policy_pagein_seconds
	//	store_op_seconds{op="append"|"fsync"|"compact"}
	segStrategy, segCache, segStore *obs.Histogram
	pageIn                          *obs.Histogram
	opAppend, opFsync, opCompact    *obs.Histogram
	storeOps                        *obs.HistogramVec
}

// NewObs builds the service telemetry bundle: a fresh registry with the
// hot-path families pre-registered, and a tracer with the default ring
// capacity.
func NewObs() *Obs {
	o := &Obs{Metrics: obs.NewRegistry(), Tracer: obs.NewTracer(0)}
	o.HTTP = obs.NewHTTPMetrics(o.Metrics)
	seg := o.Metrics.HistogramVec("question_segment_seconds",
		"Per-question serving latency by segment: a live strategy run, a policy-cache hit, or the post-answer store persist.",
		"segment", nil)
	o.segStrategy = seg.With("strategy")
	o.segCache = seg.With("cache")
	o.segStore = seg.With("store")
	o.pageIn = o.Metrics.Histogram("policy_pagein_seconds",
		"Policy-cache tier-2 page-in latency: an LRU miss streaming a stored subtree back into RAM.", nil)
	o.storeOps = o.Metrics.HistogramVec("store_op_seconds",
		"Persistent store operation latency, by op (append, fsync, compact).", "op", nil)
	o.opAppend = o.storeOps.With("append")
	o.opFsync = o.storeOps.With("fsync")
	o.opCompact = o.storeOps.With("compact")
	return o
}

// Observe implements joininference.Telemetry: session hot paths report
// strategy/cache fetch segments here, the policy cache its page-ins. The
// event and duration are value types and the histograms pre-resolved, so
// the call allocates nothing.
func (o *Obs) Observe(ev joininference.TelemetryEvent, d time.Duration) {
	switch ev {
	case joininference.TelemetryStrategy:
		o.segStrategy.Observe(d.Seconds())
	case joininference.TelemetryCache:
		o.segCache.Observe(d.Seconds())
	case joininference.TelemetryPageIn:
		o.pageIn.Observe(d.Seconds())
	}
}

// StoreObserver adapts the bundle to store.LogOptions.Observe, feeding the
// store's append/fsync/compact timings into store_op_seconds.
func (o *Obs) StoreObserver() func(op string, d time.Duration) {
	return func(op string, d time.Duration) {
		switch op {
		case "append":
			o.opAppend.Observe(d.Seconds())
		case "fsync":
			o.opFsync.Observe(d.Seconds())
		case "compact":
			o.opCompact.Observe(d.Seconds())
		default:
			o.storeOps.With(op).Observe(d.Seconds())
		}
	}
}

// bind resolves the manager's counters in the registry and exposes the
// state that lives elsewhere — live sessions, registry load and ingest
// stats, policy-cache and store residency, the breaker, the persist queue,
// the admission gates — as function-backed metrics read at exposition
// time, so nothing is counted twice. Re-binding (a fresh manager over a
// shared Obs, the restart path) hands it the same counters and replaces
// the previous manager's functions.
func (o *Obs) bind(m *Manager) {
	r := o.Metrics
	m.created = r.Counter("sessions_created_total", "Sessions created.")
	m.resumed = r.Counter("sessions_resumed_total", "Sessions resumed (boot-time restores included).")
	m.evicted = r.Counter("sessions_evicted_total", "Sessions evicted by TTL sweeps.")
	m.deleted = r.Counter("sessions_deleted_total", "Sessions explicitly deleted.")
	m.questions = r.Counter("questions_served_total", "Questions handed out.")
	m.answers = r.Counter("answers_applied_total", "Answers recorded (skipped answers excluded).")
	m.migrated = r.Counter("sessions_migrated_total", "Live sessions carried onto a new instance version.")
	m.retired = r.Counter("sessions_retired_total", "Sessions retired as inconsistent under new data.")
	m.votes = r.Counter("crowd_votes_total", "Worker votes behind committed soft answers.")
	m.commits = r.Counter("soft_commits_total", "Soft-inference commit events.")
	m.retractions = r.Counter("soft_retractions_total", "Soft-inference retraction events.")
	m.workerVotes = r.CounterVec("crowd_worker_votes_total", "Votes behind committed soft answers, by worker.", "worker")
	m.workerAgreed = r.CounterVec("crowd_worker_agreed_total", "Votes that agreed with the committed label, by worker.", "worker")
	m.workerRetracted = r.CounterVec("crowd_worker_retracted_total", "Votes behind retracted soft answers, by worker.", "worker")

	r.GaugeFunc("sessions_live", "Sessions currently resident in memory.", func() float64 {
		m.mu.Lock()
		n := len(m.sessions)
		m.mu.Unlock()
		return float64(n)
	})
	r.CounterFunc("deltas_ingested_total", "Deltas applied through Ingest.", func() float64 { return float64(m.reg.Stats().Ingests) })
	r.CounterFunc("registry_cache_hits_total", "Instances served from the store's instance cache.", func() float64 { return float64(m.reg.Stats().CacheHits) })
	r.CounterFunc("registry_reparses_total", "Instances rebuilt from their source.", func() float64 { return float64(m.reg.Stats().Reparses) })
	r.CounterFunc("registry_deltas_replayed_total", "Delta-log records rolled forward at load time.", func() float64 { return float64(m.reg.Stats().DeltasReplayed) })
	r.CounterFunc("restore_failures_total", "Persisted session records skipped at boot restore.", func() float64 { return float64(m.restoreFails.Load()) })
	if pc := m.opts.PolicyCache; pc != nil {
		r.CounterFunc("policy_cache_hits_total", "Policy-cache LRU hits.", func() float64 { return float64(pc.Stats().Hits) })
		r.CounterFunc("policy_cache_misses_total", "Policy-cache misses (LRU and tier 2).", func() float64 { return float64(pc.Stats().Misses) })
		r.CounterFunc("policy_cache_tier2_hits_total", "Policy-cache lookups served by the store tier.", func() float64 { return float64(pc.Stats().Tier2Hits) })
		r.CounterFunc("policy_cache_pageins_total", "Policy nodes paged in from the store tier.", func() float64 { return float64(pc.Stats().PageIns) })
		r.CounterFunc("policy_cache_publishes_total", "Policy nodes written.", func() float64 { return float64(pc.Stats().Publishes) })
		r.CounterFunc("policy_cache_evictions_total", "Policy nodes dropped to honor the byte bound.", func() float64 { return float64(pc.Stats().Evictions) })
		r.CounterFunc("policy_cache_invalidated_total", "Policy nodes retired by instance updates.", func() float64 { return float64(pc.Stats().Invalidated) })
		r.GaugeFunc("policy_cache_bytes", "Bytes resident in the policy cache.", func() float64 { return float64(pc.Stats().Bytes) })
		r.GaugeFunc("policy_cache_max_bytes", "Byte bound of the policy cache (0 = unbounded).", func() float64 { return float64(pc.Stats().MaxBytes) })
		r.GaugeFunc("policy_cache_nodes", "Nodes resident in the policy cache.", func() float64 { return float64(pc.Stats().Nodes) })
		r.GaugeFunc("policy_cache_hit_ratio", "Policy-cache hit ratio (LRU + tier-2 hits over lookups) since boot.", func() float64 {
			// Lookup counts every lookup exactly once: as a hit, a tier-2
			// hit or a miss.
			st := pc.Stats()
			served := st.Hits + st.Tier2Hits
			if served+st.Misses == 0 {
				return 0
			}
			return float64(served) / float64(served+st.Misses)
		})
	}
	if kv := m.opts.Store; kv != nil {
		r.CounterFunc("store_gets_total", "Store point reads.", func() float64 { return float64(kv.Stats().Gets) })
		r.CounterFunc("store_get_misses_total", "Store point reads that found nothing.", func() float64 { return float64(kv.Stats().GetMisses) })
		r.CounterFunc("store_puts_total", "Store writes.", func() float64 { return float64(kv.Stats().Puts) })
		r.CounterFunc("store_deletes_total", "Store deletes.", func() float64 { return float64(kv.Stats().Deletes) })
		r.CounterFunc("store_scans_total", "Store prefix scans.", func() float64 { return float64(kv.Stats().Scans) })
		r.CounterFunc("store_scanned_total", "Records visited by store scans.", func() float64 { return float64(kv.Stats().Scanned) })
		r.CounterFunc("store_compactions_total", "Store log compactions.", func() float64 { return float64(kv.Stats().Compactions) })
		r.CounterFunc("store_compacted_bytes_total", "Log garbage bytes reclaimed by compactions.", func() float64 { return float64(kv.Stats().CompactedBytes) })
		r.GaugeFunc("store_keys", "Live keys in the store.", func() float64 { return float64(kv.Stats().Keys) })
		r.GaugeFunc("store_live_bytes", "Live record bytes in the store.", func() float64 { return float64(kv.Stats().LiveBytes) })
		r.GaugeFunc("store_dead_bytes", "Log garbage bytes awaiting compaction.", func() float64 { return float64(kv.Stats().DeadBytes) })
		r.GaugeFunc("store_breaker_state", "Store circuit position: 0 closed, 1 half-open, 2 open.", func() float64 {
			return float64(m.breaker.State())
		})
		r.GaugeFunc("store_breaker_consecutive_failures", "Current store failure streak feeding the breaker.", func() float64 {
			return float64(m.breaker.ConsecutiveFailures())
		})
		r.CounterFunc("store_breaker_trips_total", "Store breaker open transitions.", func() float64 {
			t, _ := m.breaker.Counters()
			return float64(t)
		})
		r.CounterFunc("store_breaker_recoveries_total", "Store breaker close transitions after a trip.", func() float64 {
			_, rec := m.breaker.Counters()
			return float64(rec)
		})
		r.GaugeFunc("persist_queue_depth", "Sessions awaiting write-behind re-persist.", func() float64 {
			return float64(m.pq.depth())
		})
		r.CounterFunc("persist_retries_total", "Write-behind re-persist attempts.", func() float64 {
			return float64(m.pq.retries.Load())
		})
		r.CounterFunc("persist_dropped_total", "Re-persist requests refused by the bounded queue.", func() float64 {
			return float64(m.pq.drops.Load())
		})
	}
	r.GaugeFunc("degraded", "1 while any component (store, registry) is degraded.", func() float64 {
		if m.Degraded() {
			return 1
		}
		return 0
	})
	if len(m.gates) > 0 {
		inflight := r.GaugeVec("admission_inflight", "Requests holding an admission slot, by route.", "route")
		queued := r.GaugeVec("admission_queue_depth", "Requests waiting for an admission slot, by route.", "route")
		shed := r.CounterVec("admission_shed_total", "Requests shed with 429, by route.", "route")
		admitted := r.CounterVec("admission_admitted_total", "Requests granted an admission slot, by route.", "route")
		for _, route := range admissionRoutes {
			g := m.gates[route]
			if g == nil {
				continue
			}
			inflight.SetFunc(route, func() float64 { return float64(g.InFlight()) })
			queued.SetFunc(route, func() float64 { return float64(g.QueueDepth()) })
			shed.SetFunc(route, func() float64 { return float64(g.Shed()) })
			admitted.SetFunc(route, func() float64 { return float64(g.Admitted()) })
		}
	}
}
