package joininference

import (
	"encoding/json"
	"fmt"
	"io"

	"repro/internal/querytext"
)

// TranscriptEntry records one answered question, addressed by row indexes
// so a transcript replays against the same instance. Semijoin entries carry
// PIndex -1.
type TranscriptEntry struct {
	RIndex   int  `json:"r"`
	PIndex   int  `json:"p"`
	Positive bool `json:"positive"`
}

// Transcript returns the answered questions in order.
func (s *Session) Transcript() []TranscriptEntry { return s.kern.transcript() }

// SaveTranscript writes the session's transcript as JSON lines.
func (s *Session) SaveTranscript(w io.Writer) error {
	enc := json.NewEncoder(w)
	for _, e := range s.Transcript() {
		if err := enc.Encode(e); err != nil {
			return fmt.Errorf("joininference: writing transcript: %w", err)
		}
	}
	return nil
}

// LoadTranscript parses a JSON-lines transcript and validates every entry
// against the instance's bounds: RIndex must name a row of R, and PIndex a
// row of P or -1 (a semijoin entry). Malformed JSON or out-of-range indexes
// — a corrupt file, or a transcript saved against a different instance —
// return an error wrapping ErrBadTranscript that names the offending entry,
// never a panic.
func LoadTranscript(inst *Instance, r io.Reader) ([]TranscriptEntry, error) {
	var out []TranscriptEntry
	dec := json.NewDecoder(r)
	for line := 1; ; line++ {
		var e TranscriptEntry
		if err := dec.Decode(&e); err == io.EOF {
			break
		} else if err != nil {
			return nil, fmt.Errorf("%w: entry %d: %v", ErrBadTranscript, line, err)
		}
		if err := validateEntry(inst, e); err != nil {
			return nil, fmt.Errorf("%w: entry %d: %v", ErrBadTranscript, line, err)
		}
		out = append(out, e)
	}
	return out, nil
}

// validateEntry checks one transcript entry against the instance's bounds
// (PIndex -1 marks a semijoin entry; below -1 is corruption).
func validateEntry(inst *Instance, e TranscriptEntry) error {
	if e.RIndex < 0 || e.RIndex >= inst.R.Len() {
		return fmt.Errorf("row %d of R out of range [0,%d)", e.RIndex, inst.R.Len())
	}
	if e.PIndex < -1 || e.PIndex >= inst.P.Len() {
		return fmt.Errorf("row %d of P out of range [0,%d) (or -1)", e.PIndex, inst.P.Len())
	}
	return nil
}

// ReplayTranscript builds a new join session over the instance and replays
// a JSON-lines transcript, re-validating bounds and consistency along the
// way (every failure wraps ErrBadTranscript). Entries whose class was
// already decided by earlier answers are skipped (they carry no
// information), mirroring what a live session would have asked. Semijoin
// transcripts (PIndex -1) are not replayable here — resume those through
// ResumeSession.
func ReplayTranscript(inst *Instance, r io.Reader) (*Session, error) {
	entries, err := LoadTranscript(inst, r)
	if err != nil {
		return nil, err
	}
	s := NewSession(inst)
	if err := s.replayEntries(entries, true); err != nil {
		return nil, err
	}
	return s, nil
}

// replayEntries replays transcript entries into a fresh session,
// validating bounds and consistency; every failure wraps ErrBadTranscript.
// skipDecided selects the policy for entries whose key is already
// labeled: transcripts skip them (duplicates carry no information),
// snapshots reject them (a live session never labels one key twice, so a
// duplicate means corruption).
func (s *Session) replayEntries(entries []TranscriptEntry, skipDecided bool) error {
	for i, e := range entries {
		if err := validateEntry(s.inst, e); err != nil {
			return fmt.Errorf("%w: entry %d: %v", ErrBadTranscript, i+1, err)
		}
		key, err := s.kern.keyOf(QuestionRef{RIndex: e.RIndex, PIndex: e.PIndex})
		if err == nil && !s.kern.live(key) {
			err = fmt.Errorf("row %d was deleted", e.RIndex)
		}
		if err != nil {
			return fmt.Errorf("%w: entry %d: %v", ErrBadTranscript, i+1, err)
		}
		if _, labeled := s.kern.labelOf(key); labeled {
			if skipDecided {
				continue // duplicate of an earlier answer's key
			}
			return fmt.Errorf("%w: entry %d: (%d,%d) already labeled", ErrBadTranscript, i+1, e.RIndex, e.PIndex)
		}
		if err := s.kern.commit(key, Label(e.Positive)); err != nil {
			return fmt.Errorf("%w: entry %d: %w", ErrBadTranscript, i+1, err)
		}
		s.asked++
	}
	return nil
}

// ParsePredicate parses a textual predicate such as
// "Flight.To = Hotel.City AND Flight.Airline = Hotel.Discount" (or "TRUE"
// for the empty conjunction) over the universe's schemas.
func ParsePredicate(u *Universe, input string) (Pred, error) {
	return querytext.ParsePredicate(u, input)
}

// SQL renders a predicate as a runnable SQL join (or semijoin) over the
// instance's relations.
func SQL(u *Universe, p Pred, semijoin, pretty bool) string {
	return querytext.SQL(u, p, querytext.SQLOptions{Semijoin: semijoin, Pretty: pretty})
}
