package inference

import "context"

// Strategy selects the next class to present to the user (the Υ of
// Algorithm 1). It is called only while informative classes remain and must
// return the index of an informative class. The one loop that asks the
// user is the root package's Session, which checks every pick.
type Strategy interface {
	// Name identifies the strategy in reports ("BU", "TD", "L1S", …).
	Name() string
	// Next returns the index of the class whose representative tuple the
	// user should label next.
	Next(e *Engine) int
}

// ContextStrategy is a Strategy whose selection can be cancelled mid-way —
// implemented by the lookahead strategies, whose per-question cost is
// Θ(K³) certainty tests and worth interrupting on large instances.
type ContextStrategy interface {
	Strategy
	// NextCtx behaves like Next but aborts with the context's error as soon
	// as cancellation is observed.
	NextCtx(ctx context.Context, e *Engine) (int, error)
}
