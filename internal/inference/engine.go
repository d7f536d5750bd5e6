// Package inference implements the paper's core contribution: the
// characterization of certain/uninformative tuples (Section 3.4) that the
// general interactive inference algorithm (Algorithm 1, Section 4.1) runs
// on, and the Strategy interface of its question choice Υ. The loop itself
// is the root package's Session, driven by its Run.
//
// The engine works on T-classes of the Cartesian product (package product):
// tuples with equal most specific predicate T(t) are interchangeable for
// inference, so certainty, informativeness and strategy decisions are all
// per class. An Engine holds the evolving sample and decides the PTIME
// membership tests of Theorem 3.5 (Lemmas 3.3 and 3.4) with the one
// certainty kernel (package certainty), which it keeps in step with the
// sample: T(S+) and the ⊆-maximal negatives. A tuple is informative iff it
// is unlabeled and certain under neither lemma (Lemma 3.2 equates
// uninformative and certain examples).
package inference

import (
	"errors"
	"fmt"

	"repro/internal/certainty"
	"repro/internal/predicate"
	"repro/internal/product"
	"repro/internal/relation"
	"repro/internal/sample"
)

// ErrInconsistent is returned when the user's labels admit no consistent
// join predicate (lines 6–7 of Algorithm 1); with an honest user it never
// occurs.
var ErrInconsistent = errors.New("inference: sample is inconsistent with every equijoin predicate")

// Engine is the inference state for one instance: its T-classes, the
// current sample, and per-class labeling bookkeeping.
//
// Certainty is cached incrementally: under any sample extension a class
// that is certain stays certain (T(S+) only shrinks, so the Lemma 3.3 and
// 3.4 conditions are monotone in the sample — consistency is not even
// required). Each Label therefore re-examines only the classes still
// informative, restricted to what the label can flip: a negative example
// leaves T(S+) unchanged, so only the one new Lemma 3.4 witness is tested,
// and a negative the kernel drops as dominated tests nothing at all. This
// makes Done O(1) and Informative O(1).
type Engine struct {
	Inst    *relation.Instance
	U       *predicate.Universe
	classes []*product.Class

	s       *sample.Sample
	labeled []int8 // 0 unlabeled, 1 positive, 2 negative (per class)
	// kern is the sample's T(S+) and ⊆-maximal negatives.
	kern certainty.Kernel

	// settled[ci] records that class ci is labeled or certain (either
	// sign); monotone, so it never reverts. infCount counts the zeros.
	settled  []bool
	infCount int
	// infScratch backs InformativeClasses.
	infScratch []int
}

// Option configures engine construction.
type Option func(*options)

type options struct {
	classes []*product.Class
}

// WithClasses supplies precomputed T-classes (e.g. shared across runs with
// different goals); by default the engine computes them with the indexed
// scan.
func WithClasses(cs []*product.Class) Option {
	return func(o *options) { o.classes = cs }
}

// New builds an engine for the instance.
func New(inst *relation.Instance, opts ...Option) *Engine {
	var o options
	for _, f := range opts {
		f(&o)
	}
	u := predicate.NewUniverse(inst)
	cs := o.classes
	if cs == nil {
		cs = product.ClassesIndexed(inst, u)
	}
	s := sample.New(u)
	e := &Engine{
		Inst:    inst,
		U:       u,
		classes: cs,
		s:       s,
		labeled: make([]int8, len(cs)),
		kern:    certainty.New(s.TPos().Set.Words()),
		settled: make([]bool, len(cs)),
	}
	// Initial certainty: with no negatives, only Lemma 3.3 can settle a
	// class, and T(S+) = Ω, so exactly the classes with Theta = Ω start
	// certain (their tuples are selected by every predicate).
	for ci, c := range cs {
		if e.kern.Positive(c.Theta.Set.Words()) {
			e.settled[ci] = true
		} else {
			e.infCount++
		}
	}
	return e
}

// Classes returns the T-classes in the engine's deterministic order. The
// slice is shared; callers must not mutate it.
func (e *Engine) Classes() []*product.Class { return e.classes }

// Sample returns the current sample (shared, read-only for callers).
func (e *Engine) Sample() *sample.Sample { return e.s }

// TPos returns T(S+), Ω while no positive example exists.
func (e *Engine) TPos() predicate.Pred { return e.s.TPos() }

// Certainty returns the engine's certainty kernel: T(S+) and the
// ⊆-maximal negatives as word spans (shared; callers must not mutate it).
func (e *Engine) Certainty() *certainty.Kernel { return &e.kern }

// LabelOf returns class ci's label: labeled is false while it has none.
func (e *Engine) LabelOf(ci int) (positive, labeled bool) {
	return e.labeled[ci] == 1, e.labeled[ci] != 0
}

// CertainPositive reports whether the tuples of class ci are certain to be
// selected by every predicate consistent with the current sample.
func (e *Engine) CertainPositive(ci int) bool {
	return e.kern.Positive(e.classes[ci].Theta.Set.Words())
}

// CertainNegative reports whether the tuples of class ci are certain to be
// rejected by every predicate consistent with the current sample.
func (e *Engine) CertainNegative(ci int) bool {
	return e.kern.Negative(e.classes[ci].Theta.Set.Words())
}

// Informative reports whether labeling class ci would shrink the set of
// consistent predicates (Theorem 3.5: decidable in PTIME). Served from the
// incrementally maintained certainty cache in O(1).
func (e *Engine) Informative(ci int) bool {
	return !e.settled[ci]
}

// InformativeClasses returns the indexes of all informative classes, in
// class order. The returned slice is a scratch buffer owned by the engine:
// it is valid until the next InformativeClasses or Label call and must not
// be mutated or retained across either.
func (e *Engine) InformativeClasses() []int {
	e.infScratch = e.infScratch[:0]
	for ci, done := range e.settled {
		if !done {
			e.infScratch = append(e.infScratch, ci)
		}
	}
	return e.infScratch
}

// NumInformative returns the number of informative classes in O(1).
func (e *Engine) NumInformative() int { return e.infCount }

// Done reports the halt condition Γ: no informative tuple remains, i.e.
// exactly one predicate is consistent up to instance equivalence. O(1).
func (e *Engine) Done() bool { return e.infCount == 0 }

// Label records the user's label for (the representative of) class ci. It
// returns ErrInconsistent if the resulting sample admits no consistent
// predicate.
func (e *Engine) Label(ci int, l sample.Label) error {
	if ci < 0 || ci >= len(e.classes) {
		return fmt.Errorf("inference: class index %d out of range", ci)
	}
	return e.LabelAt(ci, e.classes[ci].RI, e.classes[ci].PI, l)
}

// LabelAt is Label with the example recorded as product tuple (ri, pi),
// which the caller guarantees lies in class ci: replaying a transcript keeps
// each answer's own rows, whichever tuple represents its class now.
func (e *Engine) LabelAt(ci, ri, pi int, l sample.Label) error {
	if ci < 0 || ci >= len(e.classes) {
		return fmt.Errorf("inference: class index %d out of range", ci)
	}
	if e.labeled[ci] != 0 {
		return fmt.Errorf("inference: class %d already labeled", ci)
	}
	c := e.classes[ci]
	e.s.Add(sample.Example{RI: ri, PI: pi, Theta: c.Theta, Label: l})
	e.settle(ci)
	if l == sample.Positive {
		e.labeled[ci] = 1
		e.sweepPositive(c.Theta.Set.Words())
	} else {
		e.labeled[ci] = 2
		e.sweepNegative(c.Theta.Set.Words())
	}
	if !e.s.Consistent() {
		return ErrInconsistent
	}
	return nil
}

// settle marks class ci uninformative if it was not already.
func (e *Engine) settle(ci int) {
	if !e.settled[ci] {
		e.settled[ci] = true
		e.infCount--
	}
}

// sweepPositive records a positive example with most specific predicate
// theta and re-examines the still-informative classes: T(S+) shrank, so
// both lemmas can newly fire.
func (e *Engine) sweepPositive(theta []uint64) {
	e.kern.AddPositive(theta)
	for ci, done := range e.settled {
		if !done && e.kern.Certain(e.classes[ci].Theta.Set.Words()) {
			e.settle(ci)
		}
	}
}

// sweepNegative records a negative example with most specific predicate
// theta. T(S+) is unchanged, so Lemma 3.3 cannot newly fire, and Lemma 3.4
// needs testing against the one new negative only; a negative the kernel
// drops as dominated settles nothing new.
func (e *Engine) sweepNegative(theta []uint64) {
	if !e.kern.AddNegative(theta) {
		return
	}
	W := len(e.kern.TPos)
	last := certainty.Kernel{TPos: e.kern.TPos, Negs: e.kern.Negs[len(e.kern.Negs)-W:]}
	for ci, done := range e.settled {
		if !done && last.Negative(e.classes[ci].Theta.Set.Words()) {
			e.settle(ci)
		}
	}
}

// Result returns the inferred predicate T(S+): the most specific predicate
// consistent with the sample, instance-equivalent to the user's goal once
// Done() holds (Section 3.3). With no positive examples this is Ω, exactly
// as the paper prescribes for empty goal joins.
func (e *Engine) Result() predicate.Pred { return e.s.TPos().Clone() }
