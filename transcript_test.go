package joininference

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"strings"
	"testing"

	"repro/internal/paperdata"
)

func runSession(t *testing.T, goalText string) (*Session, Pred) {
	t.Helper()
	inst := paperdata.FlightHotel()
	s := NewSession(inst)
	goal, err := ParsePredicate(s.Universe(), goalText)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Run(context.Background(), s, HonestOracle(goal)); err != nil {
		t.Fatal(err)
	}
	return s, goal
}

// transcriptSnapshot wraps join transcript entries in a snapshot of a
// default (TD) session, the form ResumeSession replays.
func transcriptSnapshot(entries []TranscriptEntry) *Snapshot {
	return &Snapshot{Version: 1, Kind: SnapshotKindJoin, Seed: 1, Asked: len(entries), Transcript: entries}
}

func TestTranscriptRoundTrip(t *testing.T) {
	s, _ := runSession(t, "Flight.To = Hotel.City")
	if len(s.Transcript()) != s.Questions() {
		t.Fatalf("transcript has %d entries, %d questions asked",
			len(s.Transcript()), s.Questions())
	}

	var buf bytes.Buffer
	if err := s.SaveTranscript(&buf); err != nil {
		t.Fatal(err)
	}
	var entries []TranscriptEntry
	for dec := json.NewDecoder(&buf); dec.More(); {
		var e TranscriptEntry
		if err := dec.Decode(&e); err != nil {
			t.Fatal(err)
		}
		entries = append(entries, e)
	}
	replayed, err := ResumeSession(paperdata.FlightHotel(), transcriptSnapshot(entries))
	if err != nil {
		t.Fatal(err)
	}
	if !replayed.Inferred().Equal(s.Inferred()) {
		t.Errorf("replayed predicate %v ≠ original %v",
			replayed.Inferred(), s.Inferred())
	}
	if !replayed.Done() {
		t.Error("replayed session should be done")
	}
}

// TestReplayErrors: transcript entries that cannot be replayed on the
// instance — rows out of its range, a key answered twice (a live session
// never does that), labels no predicate satisfies — fail ResumeSession with
// ErrBadTranscript, never a panic.
func TestReplayErrors(t *testing.T) {
	inst := paperdata.FlightHotel()
	for name, entries := range map[string][]TranscriptEntry{
		"R row out of range": {{RIndex: 99, PIndex: 0, Positive: true}},
		"P row out of range": {{RIndex: 0, PIndex: 99, Positive: true}},
		"duplicate entry":    {{RIndex: 0, PIndex: 2, Positive: true}, {RIndex: 0, PIndex: 2, Positive: true}},
		// (0,2) and (3,1) share no equality: T(S+) = ∅ selects every
		// tuple, so any negative contradicts them.
		"inconsistent": {{RIndex: 0, PIndex: 2, Positive: true}, {RIndex: 3, PIndex: 1, Positive: true}, {RIndex: 1, PIndex: 0, Positive: false}},
	} {
		if _, err := ResumeSession(inst, transcriptSnapshot(entries)); !errors.Is(err, ErrBadTranscript) {
			t.Errorf("%s: ResumeSession = %v, want ErrBadTranscript", name, err)
		}
	}
	// Negative rows are malformed records: snapshot validation rejects
	// them before replay.
	for name, e := range map[string]TranscriptEntry{
		"R row negative": {RIndex: -1, PIndex: 0, Positive: true},
		"P row below -1": {RIndex: 0, PIndex: -7, Positive: true},
	} {
		if _, err := ResumeSession(inst, transcriptSnapshot([]TranscriptEntry{e})); !errors.Is(err, ErrBadSnapshot) {
			t.Errorf("%s: ResumeSession = %v, want ErrBadSnapshot", name, err)
		}
	}
	semi := &Snapshot{Version: 1, Kind: SnapshotKindSemijoin, Seed: 1, Asked: 1,
		Transcript: []TranscriptEntry{{RIndex: 99, PIndex: -1, Positive: true}}}
	if _, err := ResumeSession(inst, semi); !errors.Is(err, ErrBadTranscript) {
		t.Errorf("semijoin row out of range: ResumeSession = %v, want ErrBadTranscript", err)
	}
}

func TestSQLFacade(t *testing.T) {
	s, goal := runSession(t, "Flight.To = Hotel.City")
	sql := SQL(s.Universe(), goal, false, false)
	if !strings.Contains(sql, `JOIN "Hotel"`) {
		t.Errorf("SQL = %q", sql)
	}
	semi := SQL(s.Universe(), goal, true, true)
	if !strings.Contains(semi, "EXISTS") {
		t.Errorf("semijoin SQL = %q", semi)
	}
}

func TestParsePredicateFacade(t *testing.T) {
	inst := paperdata.FlightHotel()
	u := NewSession(inst).Universe()
	p, err := ParsePredicate(u, "To = City")
	if err != nil || p.Size() != 1 {
		t.Errorf("ParsePredicate: %v, size %d", err, p.Size())
	}
	if _, err := ParsePredicate(u, "garbage"); err == nil {
		t.Error("garbage accepted")
	}
}
