package joininference

import (
	"errors"
	"fmt"

	"repro/internal/inference"
)

// Public sentinel errors. Every error returned by the package wraps one of
// these (or an I/O / validation error), so callers dispatch with errors.Is
// instead of string matching. ErrInconsistent additionally wraps the
// internal inference sentinel, keeping errors.Is compatible across layers.
var (
	// ErrInconsistent reports that the recorded labels admit no consistent
	// predicate (lines 6–7 of Algorithm 1); with an honest oracle it never
	// occurs.
	ErrInconsistent error = fmt.Errorf("joininference: %w", inference.ErrInconsistent)

	// ErrBudgetExhausted reports that the session's question budget (see
	// WithBudget) is spent while informative questions remain. The session
	// stays usable: Inferred returns the best predicate so far.
	ErrBudgetExhausted = errors.New("joininference: question budget exhausted")

	// ErrUnknownStrategy reports a StrategyID the package does not know.
	ErrUnknownStrategy = errors.New("joininference: unknown strategy")

	// ErrBadTranscript reports a transcript that cannot be applied to the
	// instance at hand: malformed JSON, row indexes out of bounds, labels
	// inconsistent with every predicate, or join/semijoin entries fed to the
	// wrong kind of session. Wrapped errors carry the offending entry number.
	ErrBadTranscript = errors.New("joininference: bad transcript")

	// ErrBadQuestionRef reports a QuestionRef that does not address this
	// session's instance: indexes out of range, a semijoin ref on a join
	// session, or vice versa.
	ErrBadQuestionRef = errors.New("joininference: bad question ref")

	// ErrBadSnapshot reports a snapshot that cannot be resumed: an
	// unsupported version, an unknown kind, a field beyond the binary
	// form's limits, or internal inconsistencies (see Snapshot for the
	// compatibility policy). AnswerVote also returns it for a vote no
	// snapshot could hold.
	ErrBadSnapshot = errors.New("joininference: bad snapshot")

	// ErrNotSnapshottable reports a session whose state cannot be captured —
	// today only sessions configured with WithCustomStrategy, since a
	// caller-implemented Strategy may hold arbitrary unserializable state.
	ErrNotSnapshottable = errors.New("joininference: session cannot be snapshotted")
)
