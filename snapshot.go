package joininference

import (
	"encoding/json"
	"fmt"
	"io"
	"math"

	"repro/internal/belief"
)

// SnapshotVersion is the current snapshot wire-format version.
//
// # Versioning and compatibility policy
//
// A Snapshot is a small, self-describing JSON document. The Version field
// is bumped only when the format changes incompatibly — a field is removed,
// renamed, or its meaning changes. New optional fields may be added without
// a bump: decoders ignore unknown fields and treat absent ones as their
// zero value, so snapshots written by an older build always resume on a
// newer build of the same major version. DecodeSnapshot and ResumeSession
// reject versions greater than SnapshotVersion (produced by a newer,
// unknown format) and versions ≤ 0, wrapping ErrBadSnapshot; every version
// in [1, SnapshotVersion] remains resumable forever.
//
// Snapshots address rows by index, so they are only meaningful against the
// instance they were taken from or a later version of it (row indexes are
// stable across versions). Resuming against a different
// instance fails with ErrBadTranscript (out-of-range or unmatchable rows)
// or ErrInconsistent where detectable — but an instance with the same
// shape and different values may silently replay to a different state;
// pairing snapshots with a stable instance name is the caller's job (the
// internal/service layer does exactly that).
//
// Version history: 1 is the original format; 2 adds the optional Soft
// section (error-tolerant sessions). Hard sessions still write version 1,
// so their snapshots remain readable by older builds; version-1 snapshots
// decode forever.
const SnapshotVersion = 2

// Snapshot kinds.
const (
	// SnapshotKindJoin marks a snapshot of a join session (NewSession).
	SnapshotKindJoin = "join"
	// SnapshotKindSemijoin marks a snapshot of a semijoin session
	// (NewSemijoinSession).
	SnapshotKindSemijoin = "semijoin"
)

// Snapshot is the durable state of a Session: everything needed to resume
// it later — in another process, on another machine — such that the resumed
// session asks bit-identical questions and infers the same predicate as the
// uninterrupted original. It captures the transcript (the answers, in
// order), the strategy configuration (id, seed, budget, parallelism) and
// the RND stream position; the engine's derived state (T-classes, sample,
// certainty bookkeeping) is deterministically recomputed on resume rather
// than serialized, which keeps snapshots tiny and format-stable.
//
// Snapshot captures state as of the last recorded answer. A question fetched
// with NextQuestions but not yet answered is not part of the snapshot —
// after ResumeSession, calling NextQuestions again re-derives the very same
// question (including for StrategyRND, whose stream position is marked at
// answer time).
//
// Sessions using WithCustomStrategy cannot be snapshotted
// (ErrNotSnapshottable): a caller-implemented Strategy may hold arbitrary
// state the package cannot capture.
type Snapshot struct {
	// Version is the wire-format version (see SnapshotVersion).
	Version int `json:"version"`
	// Kind is SnapshotKindJoin or SnapshotKindSemijoin.
	Kind string `json:"kind"`
	// Strategy, Seed, Budget and Parallelism mirror the session's
	// construction options (WithStrategy, WithSeed, WithBudget,
	// WithParallelism). Strategy and Seed must be preserved for a
	// bit-identical resume; Parallelism is a pure performance knob and may
	// be overridden freely on resume.
	Strategy    StrategyID `json:"strategy,omitempty"`
	Seed        int64      `json:"seed"`
	Budget      int        `json:"budget,omitempty"`
	Parallelism int        `json:"parallelism,omitempty"`
	// RNGPos is the RND source position as of the last recorded answer;
	// 0 for the other strategies. Resume re-establishes the position by
	// fast-forwarding a fresh source, so values above MaxSnapshotRNGPos are
	// rejected as corrupt rather than burning CPU (ErrBadSnapshot).
	RNGPos uint64 `json:"rng_pos,omitempty"`
	// Asked is the number of committed answers; always equal to
	// len(Transcript) in a well-formed snapshot (checked on resume).
	Asked int `json:"asked"`
	// Transcript is the committed answers, in order. Soft sessions commit
	// only threshold-clearing labels, so pending votes live in Soft, not
	// here.
	Transcript []TranscriptEntry `json:"transcript"`
	// Soft is the error-tolerant layer's state (nil for hard sessions);
	// requires Version ≥ 2.
	Soft *SoftSnapshot `json:"soft,omitempty"`
}

// SoftSnapshot is the durable state of the belief layer: configuration,
// counters, and the per-class accumulated evidence — including votes on
// classes that have not committed yet, so a resumed session picks up
// mid-threshold exactly where it stopped.
type SoftSnapshot struct {
	Threshold   float64 `json:"threshold"`
	ErrorBudget int     `json:"error_budget,omitempty"`
	// Retractions is the budget spent; Votes the total votes recorded.
	Retractions int `json:"retractions,omitempty"`
	Votes       int `json:"votes,omitempty"`
	// Beliefs carries each voted-on class's evidence, addressed by the
	// class's representative tuple (PIndex -1 for semijoin rows).
	Beliefs []BeliefEntry `json:"beliefs,omitempty"`
}

// BeliefEntry is one class's accumulated evidence in a SoftSnapshot.
type BeliefEntry struct {
	RIndex int `json:"r"`
	PIndex int `json:"p"`
	// Pos and Neg are the summed positive/negative vote weights.
	Pos float64 `json:"pos"`
	Neg float64 `json:"neg"`
	// Votes is the per-vote log (worker attribution survives resume).
	Votes []WorkerVote `json:"votes,omitempty"`
}

// Snapshot captures the session's resumable state as of the last recorded
// answer. The returned value is independent of the session — mutating or
// answering the session afterwards does not affect it. It fails with
// ErrNotSnapshottable for sessions configured with WithCustomStrategy.
func (s *Session) Snapshot() (*Snapshot, error) {
	if s.cfg.custom != nil {
		return nil, fmt.Errorf("%w: custom strategy %q is not serializable", ErrNotSnapshottable, s.cfg.custom.Name())
	}
	sn := &Snapshot{
		// Hard sessions keep writing version 1 so older builds can still
		// read them; only the Soft section needs version 2.
		Version:     1,
		Kind:        s.kern.kind(),
		Strategy:    s.cfg.stratID,
		Seed:        s.cfg.seed,
		Budget:      s.cfg.budget,
		Parallelism: s.cfg.parallelism,
		RNGPos:      s.rngMark,
		Asked:       s.asked,
		Transcript:  s.Transcript(),
	}
	if s.soft != nil {
		sn.Version = SnapshotVersion
		sn.Soft = s.softSnapshot()
	}
	return sn, nil
}

// softSnapshot captures the belief layer's state.
func (s *Session) softSnapshot() *SoftSnapshot {
	soft := &SoftSnapshot{
		Threshold:   s.soft.Threshold,
		ErrorBudget: s.soft.Budget,
		Retractions: s.soft.Spent,
		Votes:       s.soft.Votes,
	}
	for _, k := range s.soft.Keys() {
		q := s.kern.question(k)
		e := BeliefEntry{RIndex: q.RIndex, PIndex: q.PIndex}
		b := s.soft.Get(k)
		e.Pos, e.Neg = b.Pos, b.Neg
		e.Votes = s.workerVotes(k)
		soft.Beliefs = append(soft.Beliefs, e)
	}
	return soft
}

// Encode writes the snapshot as JSON.
func (sn *Snapshot) Encode(w io.Writer) error {
	if err := json.NewEncoder(w).Encode(sn); err != nil {
		return fmt.Errorf("joininference: encoding snapshot: %w", err)
	}
	return nil
}

// DecodeSnapshot reads a JSON snapshot and validates its version and kind
// (but not its transcript — that happens against the instance in
// ResumeSession). Errors wrap ErrBadSnapshot.
func DecodeSnapshot(r io.Reader) (*Snapshot, error) {
	var sn Snapshot
	if err := json.NewDecoder(r).Decode(&sn); err != nil {
		return nil, fmt.Errorf("%w: %v", ErrBadSnapshot, err)
	}
	if err := sn.validate(); err != nil {
		return nil, err
	}
	return &sn, nil
}

// Validate checks the snapshot's internal consistency — version range,
// kind, RNG-position bound, transcript shape — without touching an
// instance (that happens in ResumeSession). Decoders call it on every
// parse; it is exported so callers holding a hand-built or deserialized
// Snapshot can fail fast too. Errors wrap ErrBadSnapshot.
func (sn *Snapshot) Validate() error { return sn.validate() }

// MaxSnapshotRNGPos bounds Snapshot.RNGPos: restoring the position costs
// one source draw per unit (math/rand sources cannot seek), so an
// untrusted snapshot with a huge value would pin a CPU for the fast-forward
// loop. Real sessions sit orders of magnitude below this — roughly one or
// two draws per question fetched — while 16M draws replay in tens of
// milliseconds.
const MaxSnapshotRNGPos = 1 << 24

func (sn *Snapshot) validate() error {
	if sn.Version <= 0 || sn.Version > SnapshotVersion {
		return fmt.Errorf("%w: version %d not in [1, %d]", ErrBadSnapshot, sn.Version, SnapshotVersion)
	}
	if sn.RNGPos > MaxSnapshotRNGPos {
		return fmt.Errorf("%w: rng position %d exceeds %d", ErrBadSnapshot, sn.RNGPos, MaxSnapshotRNGPos)
	}
	if sn.Kind != SnapshotKindJoin && sn.Kind != SnapshotKindSemijoin {
		return fmt.Errorf("%w: unknown kind %q", ErrBadSnapshot, sn.Kind)
	}
	if sn.Asked != len(sn.Transcript) {
		return fmt.Errorf("%w: asked %d but %d transcript entries", ErrBadSnapshot, sn.Asked, len(sn.Transcript))
	}
	// The binary form's limits (snapshot_binary.go) hold for both forms, so
	// whatever validates here persists and decodes again.
	if len(sn.Strategy) > maxSnapshotStrategyLen || sn.Budget < 0 || sn.Budget > maxSnapshotInt ||
		sn.Parallelism < minSnapshotParallelism || sn.Parallelism > maxSnapshotInt {
		return fmt.Errorf("%w: budget %d, parallelism %d or strategy id of %d bytes beyond the snapshot limits",
			ErrBadSnapshot, sn.Budget, sn.Parallelism, len(sn.Strategy))
	}
	// The kind decides whether ResumeSession rebuilds a join or a semijoin
	// session, so a snapshot whose entries belong to the other kind — a
	// tampered or miswired Kind field — must be rejected here, not surface
	// as a confusing replay failure against the wrong session type.
	for i, e := range sn.Transcript {
		if err := sn.checkEntry(e.RIndex, e.PIndex); err != nil {
			return fmt.Errorf("%w: entry %d: %v", ErrBadSnapshot, i+1, err)
		}
	}
	return sn.validateSoft()
}

// checkEntry checks one transcript or belief entry's row indexes against
// the snapshot's kind and the binary form's limits.
func (sn *Snapshot) checkEntry(r, p int) error {
	if semijoinEntry := p < 0; semijoinEntry != (sn.Kind == SnapshotKindSemijoin) {
		return fmt.Errorf("%s entry (%d,%d) in a %q snapshot", entryKind(semijoinEntry), r, p, sn.Kind)
	}
	if r < 0 || r > maxSnapshotInt || p < -1 || p > maxSnapshotInt {
		return fmt.Errorf("entry (%d,%d) out of range", r, p)
	}
	return nil
}

// validateSoft checks the Soft section's internal consistency.
func (sn *Snapshot) validateSoft() error {
	soft := sn.Soft
	if soft == nil {
		return nil
	}
	if sn.Version < 2 {
		return fmt.Errorf("%w: soft section requires version ≥ 2, got %d", ErrBadSnapshot, sn.Version)
	}
	if !finiteNonNeg(soft.Threshold) {
		return fmt.Errorf("%w: soft threshold %v", ErrBadSnapshot, soft.Threshold)
	}
	if soft.ErrorBudget < 0 || soft.ErrorBudget > maxSnapshotInt || soft.Retractions < 0 || soft.Retractions > soft.ErrorBudget {
		return fmt.Errorf("%w: error budget %d with %d retractions out of range", ErrBadSnapshot, soft.ErrorBudget, soft.Retractions)
	}
	if soft.Votes < 0 || soft.Votes > maxSnapshotInt {
		return fmt.Errorf("%w: vote count %d out of range", ErrBadSnapshot, soft.Votes)
	}
	for i, b := range soft.Beliefs {
		if err := sn.checkEntry(b.RIndex, b.PIndex); err != nil {
			return fmt.Errorf("%w: belief %d: %v", ErrBadSnapshot, i+1, err)
		}
		if !finiteNonNeg(b.Pos) || !finiteNonNeg(b.Neg) {
			return fmt.Errorf("%w: belief %d: pos %v neg %v", ErrBadSnapshot, i+1, b.Pos, b.Neg)
		}
		for _, v := range b.Votes {
			if math.IsNaN(v.Weight) || math.IsInf(v.Weight, 0) || len(v.Worker) > maxSnapshotWorkerLen {
				return fmt.Errorf("%w: belief %d: vote weight %v or worker id of %d bytes out of range",
					ErrBadSnapshot, i+1, v.Weight, len(v.Worker))
			}
		}
	}
	return nil
}

func finiteNonNeg(v float64) bool {
	return !math.IsNaN(v) && !math.IsInf(v, 0) && v >= 0
}

func entryKind(semijoin bool) string {
	if semijoin {
		return SnapshotKindSemijoin
	}
	return SnapshotKindJoin
}

// ResumeSession rebuilds a session from a snapshot over the instance the
// snapshot was taken from, replaying the transcript deterministically: the
// resumed session asks bit-identical remaining questions and infers the
// same predicate as the uninterrupted original, for join and semijoin
// sessions alike. On a later version of that instance it runs the replay
// Session.MoveTo runs: answers and beliefs about rows deleted since the
// snapshot was taken are dropped, so the resumed session matches the
// original moved there.
//
// Additional options are applied on top of the snapshot's recorded
// configuration. Overriding performance knobs (WithParallelism,
// WithPrecomputedClasses) preserves the bit-identical guarantee; overriding
// WithStrategy or WithSeed deliberately changes future questions and is the
// caller's choice.
//
// Errors wrap ErrBadSnapshot (version/kind/shape), ErrBadTranscript (rows
// that do not fit the instance) or ErrInconsistent (labels no predicate
// satisfies — the snapshot belongs to different data, or a semijoin
// positive lost every witness).
func ResumeSession(inst *Instance, snap *Snapshot, opts ...Option) (*Session, error) {
	if snap == nil {
		return nil, fmt.Errorf("%w: nil snapshot", ErrBadSnapshot)
	}
	if err := snap.validate(); err != nil {
		return nil, err
	}
	base := []Option{
		WithSeed(snap.Seed),
		WithBudget(snap.Budget),
		WithParallelism(snap.Parallelism),
	}
	if snap.Strategy != "" {
		base = append(base, WithStrategy(snap.Strategy))
	}
	if snap.Soft != nil {
		base = append(base, WithSoftInference(snap.Soft.Threshold), WithErrorBudget(snap.Soft.ErrorBudget))
	}
	s := newSession(inst, configure(append(base, opts...)), snap.Kind)
	if snap.Kind == SnapshotKindJoin {
		s.rngMark = snap.RNGPos
	}
	// Replay re-runs the kernel's consistency check per entry, so a
	// snapshot from different data surfaces as ErrInconsistent here.
	if err := s.replay(snap.Transcript, snap.Soft); err != nil {
		return nil, err
	}
	return s, nil
}

// replay commits a transcript and restores a soft section into a session
// with nothing committed. It is the one way a session reaches an instance
// version: from a snapshot (ResumeSession) or from an older version
// (MoveTo). Rows stay addressable after a delete, so an entry about a row
// this version deleted — its R row, or for join its P row too — is dropped,
// and so is a belief whose class (join) or row (semijoin) no longer
// exists; a join belief follows its class by T mask, whichever tuple
// represents it now. Everything else must fit: out-of-range rows,
// duplicate keys and contradictory labels fail with ErrBadTranscript
// (wrapping ErrInconsistent for the last).
func (s *Session) replay(entries []TranscriptEntry, soft *SoftSnapshot) error {
	for i, e := range entries {
		if err := validateEntry(s.inst, e.RIndex, e.PIndex); err != nil {
			return fmt.Errorf("%w: entry %d: %v", ErrBadTranscript, i+1, err)
		}
		if !rowsAlive(s.inst, e.RIndex, e.PIndex) {
			continue
		}
		key, err := s.kern.keyOf(QuestionRef{RIndex: e.RIndex, PIndex: e.PIndex})
		if err != nil {
			return fmt.Errorf("%w: entry %d: %v", ErrBadTranscript, i+1, err)
		}
		// A live session never labels one key twice, so a duplicate means
		// corruption.
		if _, labeled := s.kern.labelOf(key); labeled {
			return fmt.Errorf("%w: entry %d: (%d,%d) already labeled", ErrBadTranscript, i+1, e.RIndex, e.PIndex)
		}
		if err := s.kern.commit(key, e); err != nil {
			return fmt.Errorf("%w: entry %d: %w", ErrBadTranscript, i+1, err)
		}
		s.asked++
	}
	return s.restoreSoft(soft)
}

// validateEntry checks a transcript or belief entry's rows against the
// instance's bounds (PIndex -1 marks a semijoin entry; below -1 is
// corruption).
func validateEntry(inst *Instance, r, p int) error {
	if r < 0 || r >= inst.R.Len() {
		return fmt.Errorf("row %d of R out of range [0,%d)", r, inst.R.Len())
	}
	if p < -1 || p >= inst.P.Len() {
		return fmt.Errorf("row %d of P out of range [0,%d) (or -1)", p, inst.P.Len())
	}
	return nil
}

// rowsAlive reports whether an entry's rows are live at inst's version.
func rowsAlive(inst *Instance, r, p int) bool {
	return inst.RAlive(r) && (p < 0 || inst.PAlive(p))
}

// restoreSoft reinstates the belief layer's counters and per-class
// evidence from the snapshot section (see replay for the beliefs it
// drops); refs that do not fit the instance fail with ErrBadTranscript,
// like transcript entries.
func (s *Session) restoreSoft(soft *SoftSnapshot) error {
	if soft == nil || s.soft == nil {
		return nil
	}
	s.soft.Spent = soft.Retractions
	s.soft.Votes = soft.Votes
	for i, b := range soft.Beliefs {
		if err := validateEntry(s.inst, b.RIndex, b.PIndex); err != nil {
			return fmt.Errorf("%w: belief %d: %v", ErrBadTranscript, i+1, err)
		}
		key, err := s.kern.keyOf(QuestionRef{RIndex: b.RIndex, PIndex: b.PIndex})
		if !rowsAlive(s.inst, b.RIndex, b.PIndex) && (err != nil || !s.kern.live(key)) {
			continue
		}
		if err != nil {
			return fmt.Errorf("%w: belief %d: %v", ErrBadTranscript, i+1, err)
		}
		recs := make([]belief.VoteRecord, len(b.Votes))
		for j, v := range b.Votes {
			recs[j] = belief.VoteRecord{Worker: v.Worker, Weight: v.Weight, Positive: v.Positive}
		}
		s.soft.Restore(key, belief.Belief{Pos: b.Pos, Neg: b.Neg}, recs)
	}
	return nil
}
