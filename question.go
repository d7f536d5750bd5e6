package joininference

import "encoding/json"

// QuestionRef is the stable wire form of a Question: the row indexes that
// identify it within its instance, independent of the unexported session
// state a live Question carries. Refs are what snapshots, transcripts and
// remote transports (e.g. an HTTP server handing questions to crowd
// workers) exchange; Session.QuestionByRef rehydrates a ref into a live
// Question on the owning session.
type QuestionRef struct {
	// RIndex is the row of R being asked about.
	RIndex int `json:"r"`
	// PIndex is the row of P, or -1 for a semijoin question.
	PIndex int `json:"p"`
}

// Semijoin reports whether the ref names a semijoin question.
func (r QuestionRef) Semijoin() bool { return r.PIndex < 0 }

// Ref returns the question's stable wire form.
func (q Question) Ref() QuestionRef { return QuestionRef{RIndex: q.RIndex, PIndex: q.PIndex} }

// questionWire is the JSON shape of a Question: the ref plus the row
// values a human (or crowd UI) needs to answer it. The unexported session
// plumbing never crosses the wire.
type questionWire struct {
	RIndex           int      `json:"r"`
	PIndex           int      `json:"p"`
	RTuple           Tuple    `json:"r_tuple"`
	PTuple           Tuple    `json:"p_tuple,omitempty"`
	EquivalentTuples int64    `json:"equivalent_tuples"`
	Semijoin         bool     `json:"semijoin,omitempty"`
	RAttrs           []string `json:"r_attrs,omitempty"`
	PAttrs           []string `json:"p_attrs,omitempty"`
}

// MarshalJSON renders the question's wire form: indexes, row values,
// attribute names and the number of product tuples the answer decides.
// Questions do not unmarshal — a consumer sends back the (r, p) ref and the
// owning session rehydrates it with QuestionByRef.
func (q Question) MarshalJSON() ([]byte, error) {
	w := questionWire{
		RIndex:           q.RIndex,
		PIndex:           q.PIndex,
		RTuple:           q.RTuple,
		PTuple:           q.PTuple,
		EquivalentTuples: q.EquivalentTuples,
		Semijoin:         q.Semijoin(),
	}
	if q.inst != nil {
		w.RAttrs = q.inst.R.Schema.Attributes
		w.PAttrs = q.inst.P.Schema.Attributes
	}
	return json.Marshal(w)
}

// QuestionByRef rehydrates a QuestionRef into a live Question on this
// session, validating the indexes against the instance. For join sessions
// the ref must name a product tuple (PIndex ≥ 0) whose T-class exists; for
// semijoin sessions it must name a row of R with PIndex -1; anything else
// fails with an error wrapping ErrBadQuestionRef. The returned Question is
// answerable with Answer exactly like one from NextQuestions.
func (s *Session) QuestionByRef(ref QuestionRef) (Question, error) {
	key, err := s.kern.keyOf(ref)
	if err != nil {
		return Question{}, err
	}
	q := s.kern.question(key)
	if !ref.Semijoin() {
		// Preserve the exact rows the ref named: the class representative
		// may be a different, interchangeable product tuple.
		q.RTuple, q.PTuple = s.inst.R.Tuples[ref.RIndex], s.inst.P.Tuples[ref.PIndex]
		q.RIndex, q.PIndex = ref.RIndex, ref.PIndex
	}
	return q, nil
}
