package joininference

import (
	"encoding/json"
	"fmt"
	"io"

	"repro/internal/querytext"
)

// TranscriptEntry records one answered question, addressed by row indexes
// so a transcript replays against the same instance and its later versions
// (row indexes are stable across versions). Semijoin entries carry PIndex
// -1.
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
