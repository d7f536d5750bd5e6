// Package service is the transport-agnostic serving layer over the root
// joininference package: a registry of named instances, a goroutine-safe
// SessionManager with TTL eviction and store persistence, and an HTTP/JSON
// handler (NewHandler) that cmd/joinserve mounts. Nothing here is specific
// to HTTP — the manager is equally usable behind gRPC, a message queue, or
// in-process.
package service

import (
	"errors"
	"fmt"
	"log/slog"
	"os"
	"sort"
	"sync"
	"sync/atomic"

	joininference "repro"
	"repro/internal/obs"
	"repro/internal/store"
	"repro/internal/synth"
	"repro/internal/tpch"
)

// Entry is a loaded, ready-to-serve snapshot of an instance at one version:
// the relations plus T-classes precomputed once and shared by every join
// session over it. Entries are immutable — an ingest replaces the slot's
// entry with a new one rather than mutating it, so a caller holding an
// Entry always sees a consistent (instance, classes) pair.
type Entry struct {
	// Name is the registry key.
	Name string
	// Inst is the two-relation instance, at the version current when the
	// entry was fetched.
	Inst *joininference.Instance
	// Classes are the precomputed per-version state of that version,
	// adopted via WithPrecomputedClasses: join sessions skip the product
	// scan, semijoin sessions share one witness table.
	Classes *joininference.ClassSet
}

// Source lazily produces an instance; it runs at most once per registry
// entry, on first use.
type Source func() (*joininference.Instance, error)

type regSlot struct {
	src Source

	// mu serializes loading and ingests for this slot; concurrent first
	// users block on the same load.
	mu     sync.Mutex
	loaded bool
	e      *Entry
	err    error
}

// Registry maps stable names to lazily-loaded instances. All methods are
// safe for concurrent use; loading (and T-class precomputation) happens at
// most once per name, concurrent first users block on the same load.
//
// With a store attached (AttachStore), a loaded entry — tuples plus
// precomputed T-classes — is cached as one binary record keyed by name, and
// later boots decode it instead of re-parsing CSV, re-generating TPC-H, or
// re-scanning the product. Ingested deltas (Ingest) are appended to the
// store's delta log, so a boot whose cached record predates the tip replays
// the missing deltas onto the cached rows and computes the tip's T-classes
// once. Like the policy cache, a name must uniquely identify the
// instance's data; registering different data under a name the store has
// seen requires clearing the store or picking a new name.
type Registry struct {
	mu    sync.Mutex
	slots map[string]*regSlot
	kv    store.KV
	log   *slog.Logger

	met registryMetrics
}

// registryMetrics counts how entries were brought to serving state:
// cacheHits decoded the store's instance cache, reparses ran the source
// (CSV parse, TPC-H generation, product scan), deltasReplayed counts
// delta-log records rolled forward at load, ingests counts live deltas
// applied.
type registryMetrics struct {
	cacheHits, reparses, deltasReplayed, ingests atomic.Int64
}

// RegistryStats is a point-in-time snapshot of a registry's counters,
// served as the registry_* and deltas_ingested_total families of
// GET /metrics.
type RegistryStats struct {
	// CacheHits counts entries served from the store's instance cache;
	// Reparses counts entries built from their source (first ever load, or
	// a corrupt/version-skewed cache record).
	CacheHits int64
	Reparses  int64
	// DeltasReplayed counts delta-log records rolled forward at load time;
	// Ingests counts deltas applied live.
	DeltasReplayed int64
	Ingests        int64
}

// Failed returns the names of entries whose one-shot load failed (the
// error sticks until restart — see loadLocked), sorted. Slots mid-load are
// skipped without blocking: loading is not failure, and health probes must
// never queue behind a TPC-H generation.
func (r *Registry) Failed() []string {
	r.mu.Lock()
	slots := make(map[string]*regSlot, len(r.slots))
	for name, s := range r.slots {
		slots[name] = s
	}
	r.mu.Unlock()
	var out []string
	for name, s := range slots {
		if !s.mu.TryLock() {
			continue
		}
		if s.loaded && s.err != nil {
			out = append(out, name)
		}
		s.mu.Unlock()
	}
	sort.Strings(out)
	return out
}

// Stats returns the registry's counters.
func (r *Registry) Stats() RegistryStats {
	return RegistryStats{
		CacheHits:      r.met.cacheHits.Load(),
		Reparses:       r.met.reparses.Load(),
		DeltasReplayed: r.met.deltasReplayed.Load(),
		Ingests:        r.met.ingests.Load(),
	}
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry { return &Registry{slots: make(map[string]*regSlot)} }

// Register adds a named source; registering a duplicate name is an error.
func (r *Registry) Register(name string, src Source) error {
	if name == "" || len(name) > maxServiceSnapName {
		// The name goes into every session's store record.
		return fmt.Errorf("service: instance name must be 1 to %d bytes", maxServiceSnapName)
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if _, ok := r.slots[name]; ok {
		return fmt.Errorf("service: instance %q already registered", name)
	}
	r.slots[name] = &regSlot{src: src}
	return nil
}

// RegisterInstance registers an already-built instance (e.g. for tests).
func (r *Registry) RegisterInstance(name string, inst *joininference.Instance) error {
	return r.Register(name, func() (*joininference.Instance, error) { return inst, nil })
}

// RegisterCSV registers a pair of CSV files loaded on first use.
func (r *Registry) RegisterCSV(name, rPath, pPath string) error {
	return r.Register(name, func() (*joininference.Instance, error) {
		if _, err := os.Stat(rPath); err != nil {
			return nil, fmt.Errorf("service: instance %q: %w", name, err)
		}
		if _, err := os.Stat(pPath); err != nil {
			return nil, fmt.Errorf("service: instance %q: %w", name, err)
		}
		return joininference.LoadCSV(rPath, pPath)
	})
}

// RegisterTPCH registers one of the paper's five TPC-H goal joins,
// generated deterministically on first use.
func (r *Registry) RegisterTPCH(name string, j tpch.Join, multiplier int, seed int64) error {
	return r.Register(name, func() (*joininference.Instance, error) {
		d, err := tpch.Generate(multiplier, seed)
		if err != nil {
			return nil, err
		}
		inst, _, err := d.Instance(j)
		return inst, err
	})
}

// RegisterSynth registers a synthetic instance (Section 5.2 generator),
// generated deterministically on first use.
func (r *Registry) RegisterSynth(name string, cfg synth.Config, seed int64) error {
	return r.Register(name, func() (*joininference.Instance, error) {
		return synth.Generate(cfg, seed)
	})
}

// ErrUnknownInstance is wrapped by Get for names never registered.
var ErrUnknownInstance = fmt.Errorf("service: unknown instance")

// ErrBadDelta wraps delta validation failures (arity mismatch, out-of-range
// or double deletes) reported by Ingest.
var ErrBadDelta = errors.New("service: bad delta")

// ErrStoreUnavailable wraps store failures that refuse a request rather
// than degrade it: Ingest cannot acknowledge a delta it could not append
// to the delta log. Retry once the store recovers (HTTP 503).
var ErrStoreUnavailable = errors.New("service: store unavailable")

// AttachStore caches loaded entries in the KV store. Attach before first
// use (wiring happens at boot); log receives cache diagnostics as
// structured records, nil discards them.
func (r *Registry) AttachStore(kv store.KV, log *slog.Logger) {
	r.mu.Lock()
	r.kv = kv
	r.log = obs.OrDiscard(log)
	r.mu.Unlock()
}

// slot resolves a name to its slot plus the store wiring, without loading.
func (r *Registry) slot(name string) (*regSlot, store.KV, *slog.Logger, error) {
	r.mu.Lock()
	defer r.mu.Unlock()
	slot, ok := r.slots[name]
	if !ok {
		return nil, nil, nil, fmt.Errorf("%w: %q", ErrUnknownInstance, name)
	}
	return slot, r.kv, obs.OrDiscard(r.log), nil
}

// Get loads (once) and returns the named entry at its current version: from
// the store cache when attached and populated, else from the source (and
// then into the cache) — in both cases rolled forward through any delta-log
// records newer than the loaded version.
func (r *Registry) Get(name string) (*Entry, error) {
	slot, kv, log, err := r.slot(name)
	if err != nil {
		return nil, err
	}
	slot.mu.Lock()
	defer slot.mu.Unlock()
	r.loadLocked(slot, name, kv, log)
	return slot.e, slot.err
}

// loadLocked brings a slot to serving state; callers hold slot.mu. The
// load is attempted once: a source or delta-log failure sticks (retrying
// cannot help and hammering a broken source per request helps less).
func (r *Registry) loadLocked(slot *regSlot, name string, kv store.KV, log *slog.Logger) {
	if slot.loaded {
		return
	}
	slot.loaded = true
	var inst *joininference.Instance
	var cs *joininference.ClassSet
	if kv != nil {
		if data, ok, err := kv.Get(store.RegistryKey(name)); err == nil && ok {
			if i, c, err := joininference.DecodeInstanceCache(data); err == nil {
				inst, cs = i, c
				r.met.cacheHits.Add(1)
			} else {
				// A corrupt cache record falls back to the source — it will
				// be overwritten below.
				log.Warn("instance cache record rejected", "instance", name, "err", err)
			}
		}
	}
	fromCache := inst != nil
	if inst == nil {
		i, err := slot.src()
		if err != nil {
			slot.err = err
			return
		}
		inst = i
		r.met.reparses.Add(1)
	}
	// Roll the data forward through delta-log records past the loaded
	// version, then compute the T-classes once, at the tip: they are a
	// function of the tip's rows alone, so a restored instance is
	// bit-identical to the one that served before the restart. A gap or
	// corrupt record is an error, not a fallback: the log is the only
	// record of ingested rows, and serving without them would silently
	// fork the history.
	replayed := 0
	if kv != nil {
		err := store.ReplayDeltaLog(kv, name, inst.Version(), func(version int64, d joininference.Delta) error {
			next, err := inst.ApplyDelta(d)
			if err != nil {
				return err
			}
			inst = next
			replayed++
			return nil
		})
		if err != nil {
			slot.err = fmt.Errorf("service: replaying delta log for %q: %w", name, err)
			return
		}
		r.met.deltasReplayed.Add(int64(replayed))
	}
	if cs == nil || replayed > 0 {
		cs = joininference.PrecomputeClasses(inst)
	}
	slot.e = &Entry{Name: name, Inst: inst, Classes: cs}
	if kv != nil && (!fromCache || replayed > 0) {
		// Advance the cached record to the tip so the next boot decodes and
		// replays nothing.
		if err := kv.Put(store.RegistryKey(name), joininference.EncodeInstanceCache(inst, cs)); err != nil {
			log.Warn("caching instance failed", "instance", name, "err", err)
		}
	}
}

// Ingest applies one delta to the named instance: the data moves to the
// next version, whose T-classes are computed afresh under slot.mu (so a Get
// of the same instance waits for them), the delta is appended to the
// store's log (when one is attached) and the cached entry record is
// advanced. Live sessions follow by moving to the new entry
// (Session.MoveTo), and the returned update tells a policy cache which
// version's trees to drop (PolicyCache.ApplyUpdate). Validation failures
// wrap ErrBadDelta, a failed delta-log append ErrStoreUnavailable; nothing
// changes on error.
func (r *Registry) Ingest(name string, d joininference.Delta) (*joininference.InstanceUpdate, error) {
	slot, kv, log, err := r.slot(name)
	if err != nil {
		return nil, err
	}
	slot.mu.Lock()
	defer slot.mu.Unlock()
	r.loadLocked(slot, name, kv, log)
	if slot.err != nil {
		return nil, slot.err
	}
	badDelta := func(err error) error {
		if errors.Is(err, joininference.ErrStaleVersion) {
			return err
		}
		return fmt.Errorf("%w: %v", ErrBadDelta, err)
	}
	inst := slot.e.Inst
	if err := inst.ValidateDelta(d); err != nil {
		return nil, badDelta(err)
	}
	// A delta the log could not replay is refused up front, with or
	// without a store, so acceptance does not depend on configuration.
	if err := store.CheckDelta(d); err != nil {
		return nil, badDelta(err)
	}
	if kv != nil {
		// The delta log is the only durable record of ingested rows, so the
		// delta is appended before the in-memory chain advances (which
		// cannot be rewound): a failed append refuses the ingest with
		// nothing changed, instead of acknowledging a version the next boot
		// cannot replay. The caller retries the same delta once the store
		// recovers.
		if err := store.AppendDelta(kv, name, inst.Version()+1, d); err != nil {
			log.Warn("persisting delta failed", "instance", name, "err", err)
			return nil, fmt.Errorf("%w: persisting delta for %q: %v", ErrStoreUnavailable, name, err)
		}
	}
	// Validated under slot.mu on the chain tip, so this cannot fail.
	upd, err := joininference.ApplyDelta(inst, slot.e.Classes, d)
	if err != nil {
		return nil, badDelta(err)
	}
	if kv != nil {
		// The instance cache is best-effort: a stale record is rolled
		// forward from the delta log at the next boot.
		if err := kv.Put(store.RegistryKey(name), joininference.EncodeInstanceCache(upd.To, upd.Classes)); err != nil {
			log.Warn("caching instance failed", "instance", name, "err", err)
		}
	}
	slot.e = &Entry{Name: name, Inst: upd.To, Classes: upd.Classes}
	r.met.ingests.Add(1)
	return upd, nil
}

// Names returns the registered names, sorted.
func (r *Registry) Names() []string {
	r.mu.Lock()
	defer r.mu.Unlock()
	out := make([]string, 0, len(r.slots))
	for n := range r.slots {
		out = append(out, n)
	}
	sort.Strings(out)
	return out
}

// DefaultRegistry returns a registry preloaded with the paper's workloads:
// the five TPC-H goal joins at multiplier 1 ("tpch-join1" … "tpch-join5")
// and the six synthetic Figure 7 configurations ("synth-1" … "synth-6"),
// all at seed 1. Everything is lazy — nothing is generated until a session
// is created over it.
func DefaultRegistry() *Registry {
	r := NewRegistry()
	for _, j := range tpch.AllJoins() {
		// Registration cannot fail on fresh names; ignore the nil error.
		_ = r.RegisterTPCH(fmt.Sprintf("tpch-join%d", int(j)), j, 1, 1)
	}
	for i, cfg := range synth.PaperConfigs() {
		_ = r.RegisterSynth(fmt.Sprintf("synth-%d", i+1), cfg, 1)
	}
	return r
}
