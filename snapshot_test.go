package joininference

import (
	"bytes"
	"context"
	"errors"
	"strings"
	"testing"

	"repro/internal/paperdata"
)

// driveRecording answers questions one at a time against an honest oracle,
// recording the ref of every question asked, until done or maxSteps
// answers have been recorded.
func driveRecording(t *testing.T, s *Session, goal Pred, maxSteps int) []QuestionRef {
	t.Helper()
	ctx := context.Background()
	oracle := HonestOracle(goal)
	var refs []QuestionRef
	for maxSteps < 0 || len(refs) < maxSteps {
		qs, err := s.NextQuestions(ctx, 1)
		if err != nil {
			t.Fatal(err)
		}
		if len(qs) == 0 {
			break
		}
		l, err := oracle.Label(ctx, qs[0])
		if err != nil {
			t.Fatal(err)
		}
		if err := s.Answer(qs[0], l); err != nil {
			t.Fatal(err)
		}
		refs = append(refs, qs[0].Ref())
	}
	return refs
}

// roundtrip snapshots the session and passes it through its JSON encoding.
func roundtrip(t *testing.T, s *Session) *Snapshot {
	t.Helper()
	snap, err := s.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := snap.Encode(&buf); err != nil {
		t.Fatal(err)
	}
	decoded, err := DecodeSnapshot(&buf)
	if err != nil {
		t.Fatal(err)
	}
	return decoded
}

func sameRefs(a, b []QuestionRef) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// TestSnapshotResumeDeterminismJoin is the acceptance differential: for
// every built-in strategy and Workers ∈ {1, 4}, a session snapshotted
// mid-run (through JSON) and resumed asks bit-identical remaining
// questions and infers the same predicate as an uninterrupted session.
func TestSnapshotResumeDeterminismJoin(t *testing.T) {
	inst := paperdata.FlightHotel()
	u := NewSession(inst).Universe()
	goal, err := PredFromNames(u, [2]string{"To", "City"}, [2]string{"Airline", "Discount"})
	if err != nil {
		t.Fatal(err)
	}
	for _, id := range KnownStrategies() {
		for _, workers := range []int{1, 4} {
			t.Run(string(id)+"/w"+string(rune('0'+workers)), func(t *testing.T) {
				opts := []Option{WithStrategy(id), WithSeed(7), WithParallelism(workers)}

				full := NewSession(inst, opts...)
				fullRefs := driveRecording(t, full, goal, -1)
				if len(fullRefs) < 2 {
					t.Fatalf("want ≥ 2 questions to interrupt, got %d", len(fullRefs))
				}

				half := len(fullRefs) / 2
				interrupted := NewSession(inst, opts...)
				prefix := driveRecording(t, interrupted, goal, half)
				if !sameRefs(prefix, fullRefs[:half]) {
					t.Fatalf("prefix diverged before the snapshot: %v vs %v", prefix, fullRefs[:half])
				}

				resumed, err := ResumeSession(inst, roundtrip(t, interrupted))
				if err != nil {
					t.Fatal(err)
				}
				if resumed.Questions() != half {
					t.Fatalf("resumed session reports %d answers, want %d", resumed.Questions(), half)
				}
				rest := driveRecording(t, resumed, goal, -1)
				if !sameRefs(rest, fullRefs[half:]) {
					t.Errorf("resumed questions diverged:\n  resumed:       %v\n  uninterrupted: %v",
						rest, fullRefs[half:])
				}
				if !resumed.Inferred().Equal(full.Inferred()) {
					t.Errorf("resumed predicate %v ≠ uninterrupted %v",
						resumed.Inferred().Format(u), full.Inferred().Format(u))
				}
				if !resumed.Done() {
					t.Error("resumed session should be done")
				}
			})
		}
	}
}

// TestSnapshotResumeDeterminismSemijoin is the same differential for
// semijoin sessions (strategy options are ignored there; budget applies).
func TestSnapshotResumeDeterminismSemijoin(t *testing.T) {
	inst := paperdata.Example21()
	u := NewSemijoinSession(inst).Universe()
	goal, err := PredFromNames(u, [2]string{"A1", "B2"})
	if err != nil {
		t.Fatal(err)
	}
	full := NewSemijoinSession(inst)
	fullRefs := driveRecording(t, full, goal, -1)
	if len(fullRefs) < 2 {
		t.Fatalf("want ≥ 2 questions to interrupt, got %d", len(fullRefs))
	}

	interrupted := NewSemijoinSession(inst)
	driveRecording(t, interrupted, goal, 1)
	snap := roundtrip(t, interrupted)
	if snap.Kind != SnapshotKindSemijoin {
		t.Fatalf("kind = %q", snap.Kind)
	}
	resumed, err := ResumeSession(inst, snap)
	if err != nil {
		t.Fatal(err)
	}
	rest := driveRecording(t, resumed, goal, -1)
	if !sameRefs(append(fullRefs[:1:1], rest...), fullRefs) {
		t.Errorf("resumed questions diverged: %v then %v vs %v", fullRefs[:1], rest, fullRefs)
	}
	if !resumed.Inferred().Equal(full.Inferred()) {
		t.Errorf("resumed predicate %v ≠ uninterrupted %v",
			resumed.Inferred().Format(u), full.Inferred().Format(u))
	}
}

// TestSnapshotOutstandingQuestionRND: a question fetched but not yet
// answered is re-derived identically after resume — RND's stream position
// is marked at answer time, not fetch time.
func TestSnapshotOutstandingQuestionRND(t *testing.T) {
	inst := paperdata.FlightHotel()
	u := NewSession(inst).Universe()
	goal, err := PredFromNames(u, [2]string{"To", "City"})
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	s := NewSession(inst, WithStrategy(StrategyRND), WithSeed(99))
	driveRecording(t, s, goal, 1)
	outstanding, err := s.NextQuestions(ctx, 1)
	if err != nil || len(outstanding) == 0 {
		t.Fatalf("outstanding question: %v, %d", err, len(outstanding))
	}
	resumed, err := ResumeSession(inst, roundtrip(t, s))
	if err != nil {
		t.Fatal(err)
	}
	again, err := resumed.NextQuestions(ctx, 1)
	if err != nil || len(again) == 0 {
		t.Fatalf("re-derived question: %v, %d", err, len(again))
	}
	if outstanding[0].Ref() != again[0].Ref() {
		t.Errorf("outstanding question %v re-derived as %v", outstanding[0].Ref(), again[0].Ref())
	}
}

func TestSnapshotBudgetSurvivesResume(t *testing.T) {
	inst := paperdata.FlightHotel()
	u := NewSession(inst).Universe()
	goal, err := PredFromNames(u, [2]string{"To", "City"})
	if err != nil {
		t.Fatal(err)
	}
	s := NewSession(inst, WithBudget(2))
	driveRecording(t, s, goal, 2)
	resumed, err := ResumeSession(inst, roundtrip(t, s))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := resumed.NextQuestions(context.Background(), 1); !errors.Is(err, ErrBudgetExhausted) {
		t.Errorf("want ErrBudgetExhausted after resume, got %v", err)
	}
}

type fixedStrategy struct{}

func (fixedStrategy) Name() string { return "fixed" }
func (fixedStrategy) Next(v StrategyView) int {
	inf := v.InformativeClasses()
	if len(inf) == 0 {
		return -1
	}
	return inf[0]
}

func TestSnapshotCustomStrategyRefused(t *testing.T) {
	s := NewSession(paperdata.FlightHotel(), WithCustomStrategy(fixedStrategy{}))
	if _, err := s.Snapshot(); !errors.Is(err, ErrNotSnapshottable) {
		t.Errorf("want ErrNotSnapshottable, got %v", err)
	}
}

func TestResumeRejectsBadSnapshots(t *testing.T) {
	inst := paperdata.FlightHotel()
	cases := []struct {
		name string
		snap *Snapshot
		want error
	}{
		{"nil", nil, ErrBadSnapshot},
		{"future version", &Snapshot{Version: SnapshotVersion + 1, Kind: SnapshotKindJoin}, ErrBadSnapshot},
		{"zero version", &Snapshot{Version: 0, Kind: SnapshotKindJoin}, ErrBadSnapshot},
		{"unknown kind", &Snapshot{Version: 1, Kind: "franken"}, ErrBadSnapshot},
		{"asked mismatch", &Snapshot{Version: 1, Kind: SnapshotKindJoin, Asked: 3}, ErrBadSnapshot},
		{"rng position bomb", &Snapshot{Version: 1, Kind: SnapshotKindJoin, Strategy: StrategyRND,
			RNGPos: MaxSnapshotRNGPos + 1}, ErrBadSnapshot},
		{"row out of range", &Snapshot{Version: 1, Kind: SnapshotKindJoin, Asked: 1,
			Transcript: []TranscriptEntry{{RIndex: 99, PIndex: 0, Positive: true}}}, ErrBadTranscript},
		{"semijoin entry in join snapshot", &Snapshot{Version: 1, Kind: SnapshotKindJoin, Asked: 1,
			Transcript: []TranscriptEntry{{RIndex: 0, PIndex: -1, Positive: true}}}, ErrBadSnapshot},
		{"join entry in semijoin snapshot", &Snapshot{Version: 1, Kind: SnapshotKindSemijoin, Asked: 1,
			Transcript: []TranscriptEntry{{RIndex: 0, PIndex: 0, Positive: true}}}, ErrBadSnapshot},
		{"duplicate class", &Snapshot{Version: 1, Kind: SnapshotKindJoin, Asked: 2,
			Transcript: []TranscriptEntry{
				{RIndex: 0, PIndex: 2, Positive: true},
				{RIndex: 0, PIndex: 2, Positive: true},
			}}, ErrBadTranscript},
		{"soft belief row out of range", &Snapshot{Version: 2, Kind: SnapshotKindJoin,
			Soft: &SoftSnapshot{Threshold: 1, Beliefs: []BeliefEntry{{RIndex: 99, PIndex: 0, Pos: 1}}}}, ErrBadTranscript},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			if _, err := ResumeSession(inst, tc.snap); !errors.Is(err, tc.want) {
				t.Errorf("want %v, got %v", tc.want, err)
			}
		})
	}
}

// TestSnapshotRecordsKind is the regression test for the session-kind
// guard: snapshots record whether the session came from NewSemijoinSession,
// and a snapshot whose Kind is flipped to the other session type — so its
// entries no longer match — is rejected with ErrBadSnapshot instead of
// resuming as the wrong kind.
func TestSnapshotRecordsKind(t *testing.T) {
	inst := paperdata.FlightHotel()
	u := NewSession(inst).Universe()
	goal, err := PredFromNames(u, [2]string{"To", "City"})
	if err != nil {
		t.Fatal(err)
	}

	join := NewSession(inst)
	driveRecording(t, join, goal, 1)
	jsnap, err := join.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	if jsnap.Kind != SnapshotKindJoin {
		t.Fatalf("join session snapshot kind = %q", jsnap.Kind)
	}

	sjInst := paperdata.Example21()
	sjU := NewSemijoinSession(sjInst).Universe()
	sjGoal, err := PredFromNames(sjU, [2]string{"A1", "B2"})
	if err != nil {
		t.Fatal(err)
	}
	semi := NewSemijoinSession(sjInst)
	driveRecording(t, semi, sjGoal, 1)
	ssnap, err := semi.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	if ssnap.Kind != SnapshotKindSemijoin {
		t.Fatalf("semijoin session snapshot kind = %q", ssnap.Kind)
	}

	// A join snapshot resumed as semijoin (and vice versa) must be rejected.
	jsnap.Kind = SnapshotKindSemijoin
	if _, err := ResumeSession(inst, jsnap); !errors.Is(err, ErrBadSnapshot) {
		t.Errorf("join snapshot with semijoin kind: err = %v, want ErrBadSnapshot", err)
	}
	ssnap.Kind = SnapshotKindJoin
	if _, err := ResumeSession(sjInst, ssnap); !errors.Is(err, ErrBadSnapshot) {
		t.Errorf("semijoin snapshot with join kind: err = %v, want ErrBadSnapshot", err)
	}
	// DecodeSnapshot validates too: the tampered document never decodes.
	var buf bytes.Buffer
	if err := jsnap.Encode(&buf); err != nil {
		t.Fatal(err)
	}
	if _, err := DecodeSnapshot(&buf); !errors.Is(err, ErrBadSnapshot) {
		t.Errorf("decoding tampered kind: err = %v, want ErrBadSnapshot", err)
	}
}

func TestDecodeSnapshotRejectsGarbage(t *testing.T) {
	if _, err := DecodeSnapshot(strings.NewReader("not json")); !errors.Is(err, ErrBadSnapshot) {
		t.Errorf("want ErrBadSnapshot, got %v", err)
	}
	if _, err := DecodeSnapshot(strings.NewReader(`{"version":99,"kind":"join","transcript":[]}`)); !errors.Is(err, ErrBadSnapshot) {
		t.Errorf("want ErrBadSnapshot for future version, got %v", err)
	}
}

func TestQuestionRefRoundtrip(t *testing.T) {
	inst := paperdata.FlightHotel()
	s := NewSession(inst)
	qs, err := s.NextQuestions(context.Background(), 1)
	if err != nil || len(qs) == 0 {
		t.Fatalf("NextQuestions: %v, %d", err, len(qs))
	}
	q2, err := s.QuestionByRef(qs[0].Ref())
	if err != nil {
		t.Fatal(err)
	}
	if q2.Ref() != qs[0].Ref() || q2.EquivalentTuples != qs[0].EquivalentTuples {
		t.Errorf("rehydrated %+v ≠ original %+v", q2.Ref(), qs[0].Ref())
	}
	if err := s.Answer(q2, Positive); err != nil {
		t.Errorf("answering a rehydrated question: %v", err)
	}
	if _, err := s.QuestionByRef(QuestionRef{RIndex: 99, PIndex: 0}); !errors.Is(err, ErrBadQuestionRef) {
		t.Errorf("out-of-range ref: want ErrBadQuestionRef, got %v", err)
	}
	if _, err := s.QuestionByRef(QuestionRef{RIndex: 0, PIndex: -1}); !errors.Is(err, ErrBadQuestionRef) {
		t.Errorf("semijoin ref on a join session: want ErrBadQuestionRef, got %v", err)
	}
	// A hand-built Question carries no session state: answering it fails
	// instead of labeling whatever class or row its zero key names.
	for _, tc := range []struct {
		s *Session
		q Question
	}{
		{NewSession(inst), Question{RIndex: 1, PIndex: 1}},
		{NewSemijoinSession(paperdata.Example21()), Question{RIndex: 2, PIndex: -1}},
	} {
		if err := tc.s.Answer(tc.q, Positive); err == nil || tc.s.Questions() != 0 {
			t.Errorf("hand-built question %+v: answered %d, err %v", tc.q.Ref(), tc.s.Questions(), err)
		}
	}
}

// TestInconsistentAnswerLeavesSessionSnapshottable: an answer rejected as
// inconsistent must leave no trace — the session stays usable and its
// snapshot reflects only accepted answers (and therefore resumes cleanly).
func TestInconsistentAnswerLeavesSessionSnapshottable(t *testing.T) {
	inst := paperdata.FlightHotel()
	s := NewSession(inst)
	// Find classes A ⊆ B (as predicates, both nonempty): labeling A
	// positive forces θ ⊆ T(A) ⊆ T(B), so labeling B negative is
	// inconsistent with every predicate.
	aCI, bCI := -1, -1
	cs := s.join().engine.Classes()
	for i, a := range cs {
		if a.Theta.Size() == 0 {
			continue
		}
		for j, b := range cs {
			if i != j && b.Theta.Size() > a.Theta.Size() && a.Theta.MoreGeneralThan(b.Theta) {
				aCI, bCI = i, j
				break
			}
		}
		if aCI >= 0 {
			break
		}
	}
	if aCI < 0 {
		t.Fatal("fixture lacks a subset pair of classes")
	}
	if err := s.Answer(s.kern.question(aCI), Positive); err != nil {
		t.Fatal(err)
	}
	if err := s.Answer(s.kern.question(bCI), Negative); !errors.Is(err, ErrInconsistent) {
		t.Fatalf("want ErrInconsistent, got %v", err)
	}
	ctx := context.Background()
	if got := len(s.Transcript()); got != s.Questions() || got != 1 {
		t.Fatalf("after rejected answer: %d transcript entries, %d questions (want 1, 1)",
			got, s.Questions())
	}
	snap := roundtrip(t, s)
	resumed, err := ResumeSession(inst, snap)
	if err != nil {
		t.Fatalf("snapshot after a rejected answer does not resume: %v", err)
	}
	if resumed.Questions() != 1 {
		t.Errorf("resumed with %d answers, want 1", resumed.Questions())
	}
	// The session remains usable: the same question, answered consistently,
	// is accepted.
	qs2, err := s.NextQuestions(ctx, 1)
	if err != nil || len(qs2) == 0 {
		t.Fatalf("session unusable after rejected answer: %v, %d", err, len(qs2))
	}
	if err := s.Answer(qs2[0], Positive); err != nil {
		t.Errorf("consistent answer rejected after rollback: %v", err)
	}
}

// TestResumeInconsistentSnapshotSignalsPublicSentinel: a join snapshot
// whose labels fit no predicate (it belongs to different data) surfaces
// the public ErrInconsistent, same as the semijoin path and live Answer.
func TestResumeInconsistentSnapshotSignalsPublicSentinel(t *testing.T) {
	inst := paperdata.FlightHotel()
	// A positive example with T(t) = ∅ forces θ = ∅, which selects every
	// tuple — so any subsequent negative label is inconsistent with every
	// predicate (Lemma 3.3).
	s := NewSession(inst)
	emptyCI, otherCI := -1, -1
	for ci, c := range s.join().engine.Classes() {
		if c.Theta.Size() == 0 {
			emptyCI = ci
		} else if otherCI < 0 {
			otherCI = ci
		}
	}
	if emptyCI < 0 || otherCI < 0 {
		t.Fatalf("fixture lacks the needed classes (empty %d, other %d)", emptyCI, otherCI)
	}
	cs := s.join().engine.Classes()
	snap := &Snapshot{
		Version: SnapshotVersion,
		Kind:    SnapshotKindJoin,
		Asked:   2,
		Transcript: []TranscriptEntry{
			{RIndex: cs[emptyCI].RI, PIndex: cs[emptyCI].PI, Positive: true},
			{RIndex: cs[otherCI].RI, PIndex: cs[otherCI].PI, Positive: false},
		},
	}
	if _, err := ResumeSession(inst, snap); !errors.Is(err, ErrInconsistent) || !errors.Is(err, ErrBadTranscript) {
		t.Errorf("want ErrInconsistent wrapped under ErrBadTranscript, got %v", err)
	}
}

func TestQuestionMarshalJSON(t *testing.T) {
	inst := paperdata.FlightHotel()
	s := NewSession(inst)
	qs, err := s.NextQuestions(context.Background(), 1)
	if err != nil || len(qs) == 0 {
		t.Fatalf("NextQuestions: %v, %d", err, len(qs))
	}
	data, err := qs[0].MarshalJSON()
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{`"r":`, `"p":`, `"r_tuple":`, `"p_tuple":`, `"equivalent_tuples":`} {
		if !strings.Contains(string(data), want) {
			t.Errorf("wire form %s missing %s", data, want)
		}
	}
	if strings.Contains(string(data), "classIndex") {
		t.Error("unexported field leaked to the wire")
	}
}
