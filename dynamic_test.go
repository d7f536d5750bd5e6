package joininference

import (
	"context"
	"errors"
	"fmt"
	"maps"
	"math/rand"
	"reflect"
	"slices"
	"strconv"
	"testing"

	"repro/internal/inference"
	"repro/internal/paperdata"
	"repro/internal/predicate"
	"repro/internal/relation"
	"repro/internal/synth"
)

// TestErrInconsistentWrapsInference pins the public error contract: the
// root ErrInconsistent must satisfy errors.Is against the internal
// inference sentinel (handlers match on either), including through
// further fmt.Errorf wrapping.
func TestErrInconsistentWrapsInference(t *testing.T) {
	if !errors.Is(ErrInconsistent, inference.ErrInconsistent) {
		t.Fatal("ErrInconsistent does not wrap inference.ErrInconsistent")
	}
	wrapped := fmt.Errorf("answering question 3: %w", ErrInconsistent)
	if !errors.Is(wrapped, ErrInconsistent) || !errors.Is(wrapped, inference.ErrInconsistent) {
		t.Fatal("wrapping breaks the ErrInconsistent chain")
	}
}

// TestApplyDeltaBasics: an update carries the new version's classes, counts
// the classes it minted and retired by the definition, and refuses a class
// set computed for another version.
func TestApplyDeltaBasics(t *testing.T) {
	inst := paperdata.FlightHotel()
	cs := PrecomputeClasses(inst)

	if _, err := ApplyDelta(inst, nil, Delta{InsertR: []Tuple{{"X", "Y", "Z"}}}); err == nil {
		t.Fatal("ApplyDelta accepted nil classes")
	}
	// The version-1 classes of another chain over the same data are not
	// inst's: minted and retired would be counted against the wrong base.
	other := paperdata.FlightHotel()
	oupd, err := ApplyDelta(other, PrecomputeClasses(other), Delta{InsertR: []Tuple{{"NYC", "Lille", "BA"}}})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := ApplyDelta(inst, oupd.Classes, Delta{InsertP: []Tuple{{"Lille", "AA"}}}); err == nil {
		t.Fatal("ApplyDelta accepted the classes of another chain's version")
	}

	ins := Delta{InsertR: []Tuple{{"NYC", "Lille", "BA"}}, InsertP: []Tuple{{"Lille", "BA"}}}
	upd, err := ApplyDelta(inst, cs, ins)
	if err != nil {
		t.Fatal(err)
	}
	if upd.Version() != 1 || upd.From != inst || upd.To.Version() != 1 {
		t.Fatalf("versions: upd.Version=%d From=%d To=%d", upd.Version(), upd.From.Version(), upd.To.Version())
	}
	if !sameClasses(upd.Classes, PrecomputeClasses(upd.To)) {
		t.Fatal("update classes differ from a fresh compute on the new version")
	}
	checkMintedRetired(t, "insert", upd)

	// The old version is no longer the tip.
	if _, err := ApplyDelta(inst, cs, ins); !errors.Is(err, ErrStaleVersion) {
		t.Fatalf("delta on a stale tip: %v", err)
	}
	// The tip with the classes of the version before it.
	if _, err := ApplyDelta(upd.To, cs, Delta{DeleteR: []int{4}}); err == nil {
		t.Fatal("ApplyDelta accepted the previous version's classes")
	}

	upd2, err := ApplyDelta(upd.To, upd.Classes, Delta{DeleteR: []int{4}, DeleteP: []int{0}})
	if err != nil {
		t.Fatal(err)
	}
	if upd2.Version() != 2 {
		t.Fatalf("version after second delta = %d", upd2.Version())
	}
	checkMintedRetired(t, "delete", upd2)

	// A seeded chain of mixed deltas over a small value domain, so that
	// steps mint and retire classes, alone and together.
	r := rand.New(rand.NewSource(7))
	inst = synth.MustGenerate(synth.Config{AttrsR: 2, AttrsP: 3, Rows: 5, Values: 4}, 7)
	cs = PrecomputeClasses(inst)
	var minted, retired, both int
	for step := 0; step < 60; step++ {
		upd, err := ApplyDelta(inst, cs, randDynDelta(r, inst))
		if err != nil {
			t.Fatalf("step %d: %v", step, err)
		}
		checkMintedRetired(t, fmt.Sprintf("step %d", step), upd)
		if upd.ClassesMinted() > 0 {
			minted++
		}
		if upd.ClassesRetired() > 0 {
			retired++
		}
		if upd.ClassesMinted() > 0 && upd.ClassesRetired() > 0 {
			both++
		}
		inst, cs = upd.To, upd.Classes
	}
	if minted == 0 || retired == 0 || both == 0 {
		t.Fatalf("chain exercised too little: %d steps minted, %d retired, %d both", minted, retired, both)
	}
}

// bruteTValues returns the keys of T(t, t') over every live pair of R×P,
// computed pair by pair from the definition.
func bruteTValues(inst *Instance) map[string]bool {
	u := predicate.NewUniverse(inst)
	out := make(map[string]bool)
	for ri, tR := range inst.R.Tuples {
		if !inst.RAlive(ri) {
			continue
		}
		for pi, tP := range inst.P.Tuples {
			if inst.PAlive(pi) {
				out[predicate.T(u, tR, tP).Key()] = true
			}
		}
	}
	return out
}

// checkMintedRetired checks an update's minted and retired counts against
// the set differences of the two versions' T values, and its classes
// against the new version's.
func checkMintedRetired(t *testing.T, tag string, upd *InstanceUpdate) {
	t.Helper()
	before, after := bruteTValues(upd.From), bruteTValues(upd.To)
	got := make(map[string]bool)
	for _, c := range upd.Classes.classes {
		got[c.Theta.Key()] = true
	}
	if !maps.Equal(got, after) {
		t.Fatalf("%s: %d class thetas, want the %d T values of the new version", tag, len(got), len(after))
	}
	minted, retired := 0, 0
	for k := range after {
		if !before[k] {
			minted++
		}
	}
	for k := range before {
		if !after[k] {
			retired++
		}
	}
	if upd.ClassesMinted() != minted || upd.ClassesRetired() != retired {
		t.Fatalf("%s: minted %d, retired %d; want %d and %d",
			tag, upd.ClassesMinted(), upd.ClassesRetired(), minted, retired)
	}
}

// randDynDelta draws up to two inserts over the values "0"–"3" and up to
// two deletes per relation, keeping at least two live rows on each side.
func randDynDelta(r *rand.Rand, inst *Instance) Delta {
	var d Delta
	rows := func(arity int) []Tuple {
		out := make([]Tuple, r.Intn(3))
		for i := range out {
			out[i] = make(Tuple, arity)
			for k := range out[i] {
				out[i][k] = strconv.Itoa(r.Intn(4))
			}
		}
		return out
	}
	d.InsertR = rows(inst.R.Schema.Arity())
	d.InsertP = rows(inst.P.Schema.Arity())
	pick := func(n int, alive func(int) bool) []int {
		var live []int
		for i := 0; i < n; i++ {
			if alive(i) {
				live = append(live, i)
			}
		}
		r.Shuffle(len(live), func(a, b int) { live[a], live[b] = live[b], live[a] })
		return live[:min(r.Intn(3), max(len(live)-2, 0))]
	}
	d.DeleteR = pick(inst.R.Len(), inst.RAlive)
	d.DeleteP = pick(inst.P.Len(), inst.PAlive)
	return d
}

// TestApplyUpdateRejectsWrongVersion: a session moves forward along its own
// version chain only, any number of versions at once, and a refused move
// leaves it where it was.
func TestApplyUpdateRejectsWrongVersion(t *testing.T) {
	inst := paperdata.FlightHotel()
	cs := PrecomputeClasses(inst)
	s := NewSession(inst, WithStrategy(StrategyBU), WithPrecomputedClasses(cs))

	upd1, err := ApplyDelta(inst, cs, Delta{InsertR: []Tuple{{"A", "B", "C"}}})
	if err != nil {
		t.Fatal(err)
	}
	upd2, err := ApplyDelta(upd1.To, upd1.Classes, Delta{InsertP: []Tuple{{"B", "C"}}})
	if err != nil {
		t.Fatal(err)
	}
	other := paperdata.FlightHotel()
	for name, move := range map[string]func() error{
		"nil instance":          func() error { return s.MoveTo(nil, nil) },
		"another chain":         func() error { return s.MoveTo(other, PrecomputeClasses(other)) },
		"another version's set": func() error { return s.MoveTo(upd2.To, upd1.Classes) },
	} {
		if err := move(); err == nil {
			t.Errorf("%s: move accepted", name)
		}
	}
	if s.InstanceVersion() != 0 {
		t.Fatalf("refused moves left the session on version %d", s.InstanceVersion())
	}
	// Skipping v1 is one move.
	if err := s.MoveTo(upd2.To, upd2.Classes); err != nil {
		t.Fatal(err)
	}
	if err := s.MoveTo(upd1.To, upd1.Classes); !errors.Is(err, ErrStaleVersion) {
		t.Fatalf("move back to v1: %v, want ErrStaleVersion", err)
	}
	if err := s.MoveTo(upd2.To, nil); err != nil {
		t.Fatalf("move to the session's own version: %v", err)
	}
	if s.InstanceVersion() != 2 {
		t.Fatalf("session version = %d", s.InstanceVersion())
	}
}

// lockstep drives two sessions with the same oracle, requiring them to ask
// bit-identical questions at every step, for maxSteps answers (< 0 = until
// both are done). Returns the number of answers recorded.
func lockstep(t *testing.T, tag string, a, b *Session, oracle Oracle, maxSteps int) int {
	t.Helper()
	ctx := context.Background()
	steps := 0
	for maxSteps < 0 || steps < maxSteps {
		qa, err := a.NextQuestions(ctx, 1)
		if err != nil {
			t.Fatalf("%s: first session step %d: %v", tag, steps, err)
		}
		qb, err := b.NextQuestions(ctx, 1)
		if err != nil {
			t.Fatalf("%s: second session step %d: %v", tag, steps, err)
		}
		if len(qa) != len(qb) {
			t.Fatalf("%s: step %d: first has %d questions, second %d", tag, steps, len(qa), len(qb))
		}
		if len(qa) == 0 {
			break
		}
		if qa[0].Ref() != qb[0].Ref() {
			t.Fatalf("%s: step %d: first asks %v, second asks %v", tag, steps, qa[0].Ref(), qb[0].Ref())
		}
		l, err := oracle.Label(ctx, qa[0])
		if err != nil {
			t.Fatalf("%s: oracle: %v", tag, err)
		}
		if err := a.Answer(qa[0], l); err != nil {
			t.Fatalf("%s: first answer: %v", tag, err)
		}
		if err := b.Answer(qb[0], l); err != nil {
			t.Fatalf("%s: second answer: %v", tag, err)
		}
		steps++
	}
	return steps
}

// dynCase is one script of the dynamic-instance differential.
type dynCase struct {
	semijoin bool
	// opts builds the session options over a version's classes.
	opts   func(cs *ClassSet) []Option
	inst   *Instance
	goal   Pred
	deltas []Delta
	// start answers the opening questions (default: two honest answers);
	// moved, when set, checks the live session right after each move.
	start func(t *testing.T, s *Session)
	moved func(t *testing.T, s *Session)
}

// newSessionOf builds a session of the case's kind over inst.
func (c dynCase) newSessionOf(inst *Instance, cs *ClassSet) *Session {
	if c.semijoin {
		return NewSemijoinSession(inst, c.opts(cs)...)
	}
	return NewSession(inst, c.opts(cs)...)
}

// liveEntries counts the entries of tr whose rows are live at inst.
func liveEntries(tr []TranscriptEntry, inst *Instance) int {
	n := 0
	for _, e := range tr {
		if inst.RAlive(e.RIndex) && (e.PIndex < 0 || inst.PAlive(e.PIndex)) {
			n++
		}
	}
	return n
}

// runDynamicDifferential is the acceptance differential for dynamic
// instances. A session moved live across deltas with MoveTo must be
// indistinguishable — bit-identical question sequence, same inferred
// predicate — from one snapshotted before each delta and resumed, unpruned,
// on the new version; both must keep exactly the answers whose rows are
// still live. A twin left untouched from the start that skips every
// intermediate version and moves once must then ask what a twin moved at
// every version asks. When a move makes the recorded answers inconsistent
// (semijoin positives orphaned by a delete), the resume must fail the same
// way.
func runDynamicDifferential(t *testing.T, tag string, c dynCase) {
	t.Helper()
	inst, cs := c.inst, PrecomputeClasses(c.inst)
	oracle := HonestOracle(c.goal)

	a := c.newSessionOf(inst, cs)
	if c.start != nil {
		c.start(t, a)
	} else {
		driveRecording(t, a, c.goal, 2)
	}
	snap0, err := a.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	twin := func() *Session {
		s, err := ResumeSession(inst, snap0, c.opts(cs)...)
		if err != nil {
			t.Fatalf("%s: resume at v0: %v", tag, err)
		}
		return s
	}
	skipper, stepper := twin(), twin()

	var b *Session
	for i, d := range c.deltas {
		snap, err := a.Snapshot()
		if err != nil {
			t.Fatalf("%s: snapshot before delta %d: %v", tag, i, err)
		}
		upd, err := ApplyDelta(inst, cs, d)
		if err != nil {
			t.Fatalf("%s: delta %d: %v", tag, i, err)
		}
		inst, cs = upd.To, upd.Classes

		aerr := a.MoveTo(upd.To, upd.Classes)
		b, err = ResumeSession(upd.To, snap, c.opts(upd.Classes)...)
		if aerr != nil {
			// The live move refused the version; resuming the same answers
			// there must refuse them for the same reason.
			if !errors.Is(aerr, ErrInconsistent) {
				t.Fatalf("%s: delta %d: MoveTo: %v", tag, i, aerr)
			}
			if err == nil || !errors.Is(err, ErrInconsistent) {
				t.Fatalf("%s: delta %d: moved session inconsistent but resume says %v", tag, i, err)
			}
			return
		}
		if err != nil {
			t.Fatalf("%s: delta %d: resume on v%d: %v", tag, i, upd.Version(), err)
		}
		if a.InstanceVersion() != upd.Version() {
			t.Fatalf("%s: session version %d after update to %d", tag, a.InstanceVersion(), upd.Version())
		}
		want := liveEntries(snap.Transcript, upd.To)
		if got := a.Transcript(); len(got) != want || !reflect.DeepEqual(got, b.Transcript()) {
			t.Fatalf("%s: delta %d: moved transcript %v, resumed %v; want the %d entries on live rows",
				tag, i, got, b.Transcript(), want)
		}
		if c.moved != nil {
			c.moved(t, a)
		}
		if err := stepper.MoveTo(upd.To, upd.Classes); err != nil {
			t.Fatalf("%s: delta %d: stepwise twin: %v", tag, i, err)
		}

		steps := -1
		if i < len(c.deltas)-1 {
			steps = 2 // keep the run alive for the next delta
		}
		lockstep(t, fmt.Sprintf("%s/v%d", tag, upd.Version()), a, b, oracle, steps)
	}

	// Both drove to completion on the final version; the inferred
	// predicates must select the same rows.
	if a.Done() != b.Done() {
		t.Fatalf("%s: moved done=%v, resumed done=%v", tag, a.Done(), b.Done())
	}
	if c.semijoin {
		if !reflect.DeepEqual(SemijoinEval(inst, a.Inferred()), SemijoinEval(inst, b.Inferred())) {
			t.Fatalf("%s: inferred semijoins differ", tag)
		}
	} else {
		if !reflect.DeepEqual(Join(inst, a.Inferred()), Join(inst, b.Inferred())) {
			t.Fatalf("%s: inferred joins differ", tag)
		}
	}

	if err := skipper.MoveTo(inst, cs); err != nil {
		t.Fatalf("%s: twin skipping to v%d: %v", tag, inst.Version(), err)
	}
	lockstep(t, tag+"/skip", skipper, stepper, oracle, -1)
}

// TestDynamicMaintainedMatchesResumeJoin runs the differential for every
// built-in strategy at Workers 1 and 4, over a delta script that inserts
// into both relations, deletes answered rows from both, and then mixes the
// two — so answers are dropped and classes are minted and retired. A BU run
// at Figure 7 scale adds one row and drops it again, and a two-negative
// script deletes the row of the negative that dominated the other.
func TestDynamicMaintainedMatchesResumeJoin(t *testing.T) {
	deltas := []Delta{
		{InsertR: []Tuple{{"NYC", "Lille", "BA"}, {"Lille", "Paris", "AF"}}, InsertP: []Tuple{{"Lille", "BA"}}},
		{DeleteR: []int{1}, DeleteP: []int{0}},
		{InsertR: []Tuple{{"Paris", "Lille", "AA"}}, InsertP: []Tuple{{"NYC", "AA"}}, DeleteR: []int{4}},
	}
	for _, strat := range []StrategyID{StrategyBU, StrategyTD, StrategyL1S, StrategyL2S, StrategyRND} {
		for _, workers := range []int{1, 4} {
			t.Run(fmt.Sprintf("%s/w%d", strat, workers), func(t *testing.T) {
				inst := paperdata.FlightHotel()
				u := NewSession(inst).Universe()
				goal, err := PredFromNames(u, [2]string{"To", "City"}, [2]string{"Airline", "Discount"})
				if err != nil {
					t.Fatal(err)
				}
				opts := func(cs *ClassSet) []Option {
					return []Option{WithStrategy(strat), WithSeed(7), WithParallelism(workers), WithPrecomputedClasses(cs)}
				}
				runDynamicDifferential(t, t.Name(), dynCase{opts: opts, inst: inst, goal: goal, deltas: deltas})
			})
		}
	}
	t.Run("fig7/BU", func(t *testing.T) {
		inst := synth.MustGenerate(synth.PaperConfigs()[0], 1)
		goal, err := PredFromNames(NewSession(inst).Universe(), [2]string{"A1", "B1"})
		if err != nil {
			t.Fatal(err)
		}
		fig7Deltas := []Delta{
			{InsertR: []Tuple{{"100", "100", "100"}}},
			{DeleteR: []int{inst.R.Len()}},
		}
		opts := func(cs *ClassSet) []Option {
			return []Option{WithStrategy(StrategyBU), WithPrecomputedClasses(cs)}
		}
		runDynamicDifferential(t, t.Name(), dynCase{opts: opts, inst: inst, goal: goal, deltas: fig7Deltas})
	})
	// An answer keeps its own rows. (2,1) represents the class T = {To =
	// City}; the inserted P row gives it (0,3), which precedes it, and then
	// R row 0 dies. The answer survives both moves, since its rows do.
	t.Run("representativeOvertaken", func(t *testing.T) {
		inst := paperdata.FlightHotel()
		goal, err := PredFromNames(NewSession(inst).Universe(), [2]string{"To", "City"}, [2]string{"Airline", "Discount"})
		if err != nil {
			t.Fatal(err)
		}
		c := dynCase{
			opts: func(cs *ClassSet) []Option {
				return []Option{WithStrategy(StrategyBU), WithPrecomputedClasses(cs)}
			},
			inst: inst, goal: goal,
			deltas: []Delta{{InsertP: []Tuple{{"Lille", "ZZ"}}}, {DeleteR: []int{0}}},
			start: func(t *testing.T, s *Session) {
				q, err := s.QuestionByRef(QuestionRef{RIndex: 2, PIndex: 1})
				if err != nil {
					t.Fatal(err)
				}
				if err := s.Answer(q, Negative); err != nil {
					t.Fatal(err)
				}
			},
			moved: func(t *testing.T, s *Session) {
				if tr := s.Transcript(); len(tr) == 0 || tr[0] != (TranscriptEntry{RIndex: 2, PIndex: 1}) {
					t.Fatalf("after the move to v%d the first answer is %v, want (2,1) negative", s.InstanceVersion(), tr)
				}
			},
		}
		runDynamicDifferential(t, t.Name(), c)
	})
	// Negatives n1 ⊂ n2 leave only n2 in the certainty kernel's ⊆-maximal
	// list. Deleting n2's row drops its answer: n1 must settle what it
	// covers again, and what only n2 covered turns informative.
	for _, n2First := range []bool{false, true} {
		t.Run(fmt.Sprintf("prunedNegative/n2First=%v", n2First), func(t *testing.T) {
			// Pairs: (A1,B1), (A1,B2), (A2,B1), (A2,B2).
			r := relation.NewRelation(relation.MustSchema("R", "A1", "A2"))
			r.MustAddTuple("1", "9") // r0
			r.MustAddTuple("2", "8") // r1
			p := relation.NewRelation(relation.MustSchema("P", "B1", "B2"))
			p.MustAddTuple("1", "1") // p0: T(r0,p0) = {A1B1, A1B2} = n2
			p.MustAddTuple("1", "2") // p1: T(r0,p1) = {A1B1} = n1, T(r1,p1) = {A1B2}
			p.MustAddTuple("5", "5") // p2: T(·,p2) = ∅
			inst := relation.MustInstance(r, p)
			goal, err := PredFromNames(NewSession(inst).Universe(), [2]string{"A2", "B2"})
			if err != nil {
				t.Fatal(err)
			}
			ref := func(s *Session, ri, pi int) Question {
				q, err := s.QuestionByRef(QuestionRef{RIndex: ri, PIndex: pi})
				if err != nil {
					t.Fatal(err)
				}
				return q
			}
			order := [][2]int{{0, 1}, {0, 0}}
			if n2First {
				order[0], order[1] = order[1], order[0]
			}
			c := dynCase{
				opts: func(cs *ClassSet) []Option {
					return []Option{WithStrategy(StrategyBU), WithPrecomputedClasses(cs)}
				},
				inst: inst, goal: goal,
				deltas: []Delta{{DeleteP: []int{0}}},
				start: func(t *testing.T, s *Session) {
					for _, rp := range order {
						if err := s.Answer(ref(s, rp[0], rp[1]), Negative); err != nil {
							t.Fatal(err)
						}
					}
				},
				moved: func(t *testing.T, s *Session) {
					if s.IsInformative(ref(s, 0, 2)) {
						t.Error("n1 no longer settles the ∅ class")
					}
					if !s.IsInformative(ref(s, 1, 1)) {
						t.Error("the class only n2 covered is still settled")
					}
				},
			}
			runDynamicDifferential(t, t.Name(), c)
		})
	}
}

// TestDynamicMaintainedMatchesResumeSemijoin is the semijoin leg: R and P
// grow and answered R rows disappear across the run. (P deletions, which
// can orphan a positive answer, get their own test below.)
func TestDynamicMaintainedMatchesResumeSemijoin(t *testing.T) {
	deltas := []Delta{
		{InsertR: []Tuple{{"5", "5"}}, InsertP: []Tuple{{"7", "8", "9"}}},
		{DeleteR: []int{3}},
		{InsertR: []Tuple{{"0", "2"}}, InsertP: []Tuple{{"4", "4", "4"}}},
	}
	for _, workers := range []int{1, 4} {
		t.Run(fmt.Sprintf("w%d", workers), func(t *testing.T) {
			inst := paperdata.Example21()
			u := NewSession(inst).Universe()
			goal, err := PredFromNames(u, [2]string{"A1", "B2"})
			if err != nil {
				t.Fatal(err)
			}
			opts := func(*ClassSet) []Option {
				return []Option{WithParallelism(workers)}
			}
			runDynamicDifferential(t, t.Name(), dynCase{semijoin: true, opts: opts, inst: inst, goal: goal, deltas: deltas})
		})
	}
}

// TestSemijoinUpdateOrphanedPositive: deleting every witness of a
// positively-answered R row makes the recorded sample unsatisfiable. The
// move must surface ErrInconsistent and leave the session untouched on its
// old version (for the owner to retire). A session that skips to a later
// version where the row has a witness again moves there: only the answers
// and the target version count.
func TestSemijoinUpdateOrphanedPositive(t *testing.T) {
	inst := paperdata.Example21()
	cs := PrecomputeClasses(inst)
	s := NewSemijoinSession(inst)
	q, err := s.QuestionByRef(QuestionRef{RIndex: 0, PIndex: -1})
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Answer(q, Positive); err != nil {
		t.Fatal(err)
	}

	upd, err := ApplyDelta(inst, cs, Delta{DeleteP: []int{0, 1, 2}})
	if err != nil {
		t.Fatal(err)
	}
	if err := s.MoveTo(upd.To, upd.Classes); !errors.Is(err, ErrInconsistent) {
		t.Fatalf("orphaned positive: %v", err)
	}
	if s.InstanceVersion() != 0 || s.Questions() != 1 {
		t.Fatalf("failed move mutated the session: version %d, asked %d", s.InstanceVersion(), s.Questions())
	}
	// The session is still serviceable on the old version.
	if _, err := s.NextQuestions(context.Background(), 1); err != nil {
		t.Fatalf("session unusable after refused move: %v", err)
	}

	// Any P row witnesses row 0 under the empty predicate.
	upd2, err := ApplyDelta(upd.To, upd.Classes, Delta{InsertP: []Tuple{{"9", "9", "9"}}})
	if err != nil {
		t.Fatal(err)
	}
	if err := s.MoveTo(upd2.To, upd2.Classes); err != nil {
		t.Fatalf("skipping to a version with a witness again: %v", err)
	}
	if s.InstanceVersion() != 2 || s.Questions() != 1 {
		t.Fatalf("after the skip: version %d, asked %d; want 2, 1", s.InstanceVersion(), s.Questions())
	}
}

// TestSemijoinDeletedRowsNeverAsked: a row an update deleted is never
// informative — neither a migrated session nor a fresh one on the new
// version asks about it, at any batch size, through to the halt condition;
// answering it anyway fails with ErrBadQuestionRef.
func TestSemijoinDeletedRowsNeverAsked(t *testing.T) {
	ctx := context.Background()
	inst := paperdata.Example21()
	goal, err := PredFromNames(NewSession(inst).Universe(), [2]string{"A1", "B2"})
	if err != nil {
		t.Fatal(err)
	}
	upd, err := ApplyDelta(inst, PrecomputeClasses(inst), Delta{DeleteR: []int{0}})
	if err != nil {
		t.Fatal(err)
	}
	sessions := map[string]func(opts ...Option) *Session{
		"migrated": func(opts ...Option) *Session {
			s := NewSemijoinSession(inst, opts...)
			if err := s.MoveTo(upd.To, upd.Classes); err != nil {
				t.Fatal(err)
			}
			return s
		},
		"fresh": func(opts ...Option) *Session { return NewSemijoinSession(upd.To, opts...) },
	}
	for name, mk := range sessions {
		for _, k := range []int{1, 4} {
			t.Run(fmt.Sprintf("%s/k%d", name, k), func(t *testing.T) {
				s := mk()
				for round := 0; ; round++ {
					qs, err := s.NextQuestions(ctx, k)
					if err != nil {
						t.Fatal(err)
					}
					if len(qs) == 0 {
						break
					}
					for _, q := range qs {
						if q.RIndex == 0 {
							t.Fatalf("round %d asked about deleted row 0", round)
						}
						l, _ := HonestOracle(goal).Label(ctx, q)
						if _, err := s.AnswerBatch([]Question{q}, []Label{l}); err != nil {
							t.Fatal(err)
						}
					}
				}
				if !s.Done() {
					t.Fatal("not done after the fetch loop ended")
				}
				dead, err := s.QuestionByRef(QuestionRef{RIndex: 0, PIndex: -1})
				if err != nil {
					t.Fatal(err)
				}
				if s.IsInformative(dead) {
					t.Error("deleted row reported informative")
				}
				if err := s.Answer(dead, Positive); !errors.Is(err, ErrBadQuestionRef) {
					t.Errorf("answering the deleted row: %v, want ErrBadQuestionRef", err)
				}
				soft := mk(WithErrorBudget(1))
				if err := soft.AnswerVote(dead, Positive, Vote{}); !errors.Is(err, ErrBadQuestionRef) {
					t.Errorf("voting on the deleted row: %v, want ErrBadQuestionRef", err)
				}
				if st := soft.SoftStats(); st.Votes != 0 {
					t.Errorf("vote on the deleted row recorded: %+v", st)
				}
			})
		}
	}
}

// TestJoinAnswerAboutDeletedRowRefused: a join question keeps the rows it
// named, so once an update deletes its R row it is refused — not recorded
// under a dead row the next move would drop — even though its T-class
// lives on through another pair and still resolves.
func TestJoinAnswerAboutDeletedRowRefused(t *testing.T) {
	inst := paperdata.FlightHotel()
	upd, err := ApplyDelta(inst, PrecomputeClasses(inst), Delta{DeleteR: []int{0}})
	if err != nil {
		t.Fatal(err)
	}
	// Flight(Paris,Lille,AF) × Hotel(Paris,None) shares its T-class with
	// Flight(Paris,NYC,AF) × Hotel(Paris,None).
	ref := QuestionRef{RIndex: 0, PIndex: 1}
	for _, opts := range [][]Option{nil, {WithErrorBudget(1)}} {
		s := NewSession(inst, opts...)
		fetched, err := s.QuestionByRef(ref)
		if err != nil {
			t.Fatal(err)
		}
		if !s.IsInformative(fetched) {
			t.Fatal("question not informative before the delete")
		}
		if err := s.MoveTo(upd.To, upd.Classes); err != nil {
			t.Fatal(err)
		}
		q, err := s.QuestionByRef(ref)
		if err != nil {
			t.Fatalf("the surviving class no longer resolves: %v", err)
		}
		if s.IsInformative(q) {
			t.Error("question about a deleted row reported informative")
		}
		if err := s.Answer(q, Negative); !errors.Is(err, ErrBadQuestionRef) {
			t.Errorf("soft=%v: answering about the deleted row: %v, want ErrBadQuestionRef", s.Soft(), err)
		}
		if s.Questions() != 0 || len(s.Transcript()) != 0 || s.Soft() && s.SoftStats().Votes != 0 {
			t.Errorf("soft=%v: refused answer left a trace", s.Soft())
		}
	}
}

// TestQuestionFetchedBeforeMoveKeepsItsRows: an insert that mints a class
// early in canonical order shifts the keys of later classes, so a question
// fetched before a move must be resolved again by its rows: answered after
// the move, it acts exactly as the same ref fetched on the new version.
func TestQuestionFetchedBeforeMoveKeepsItsRows(t *testing.T) {
	ctx := context.Background()
	inst := paperdata.FlightHotel()
	// Hotel(AF,Paris) brings equalities Airline=City and From=Discount,
	// whose new classes sort among the old ones and shift four pairs'
	// keys ((0,2), (1,0), (2,0), (3,2)).
	upd, err := ApplyDelta(inst, PrecomputeClasses(inst), Delta{InsertP: []Tuple{{"AF", "Paris"}}})
	if err != nil {
		t.Fatal(err)
	}
	goal, err := PredFromNames(NewSession(inst).Universe(), [2]string{"To", "City"}, [2]string{"Airline", "Discount"})
	if err != nil {
		t.Fatal(err)
	}
	oracle := HonestOracle(goal)
	for r := 0; r < inst.R.Len(); r++ {
		for p := 0; p < inst.P.Len(); p++ {
			ref := QuestionRef{RIndex: r, PIndex: p}
			moved := NewSession(inst)
			stale, err := moved.QuestionByRef(ref)
			if err != nil {
				t.Fatal(err)
			}
			if err := moved.MoveTo(upd.To, upd.Classes); err != nil {
				t.Fatal(err)
			}
			fresh := NewSession(upd.To, WithPrecomputedClasses(upd.Classes))
			q, err := fresh.QuestionByRef(ref)
			if err != nil {
				t.Fatal(err)
			}
			if moved.IsInformative(stale) != fresh.IsInformative(q) {
				t.Fatalf("%v: informative %v after the move, %v fetched on the new version", ref, moved.IsInformative(stale), fresh.IsInformative(q))
			}
			l, err := oracle.Label(ctx, q)
			if err != nil {
				t.Fatal(err)
			}
			if err1, err2 := moved.Answer(stale, l), fresh.Answer(q, l); (err1 == nil) != (err2 == nil) {
				t.Fatalf("%v: answer after the move %v, on the new version %v", ref, err1, err2)
			}
			a, err := moved.NextQuestions(ctx, 3)
			if err != nil {
				t.Fatal(err)
			}
			b, err := fresh.NextQuestions(ctx, 3)
			if err != nil {
				t.Fatal(err)
			}
			if !slices.EqualFunc(a, b, func(x, y Question) bool { return x.Ref() == y.Ref() }) || moved.Inferred().String() != fresh.Inferred().String() {
				t.Fatalf("%v: moved session infers %v, fresh one infers %v", ref, moved.Inferred(), fresh.Inferred())
			}
		}
	}
}

// TestPolicyCacheApplyUpdateKeepsEquivalence checks the policy cache's
// contract across instance updates on small random instances: warm a tree
// on v0, apply one delta (an R or P insert or delete), and the update must
// leave no v0 node resident; a cached session on v1 must then ask
// bit-identical questions to an uncached one, fetching k at a time.
func TestPolicyCacheApplyUpdateKeepsEquivalence(t *testing.T) {
	kinds := []string{"insertR", "insertP", "deleteR", "deleteP"}
	for _, strat := range []StrategyID{StrategyBU, StrategyTD, StrategyL1S, StrategyL2S, StrategyRND} {
		t.Run(string(strat), func(t *testing.T) {
			for seed := int64(1); seed <= 100; seed++ {
				rng := rand.New(rand.NewSource(seed))
				cfg := synth.Config{AttrsR: 2, AttrsP: 2, Rows: 4 + rng.Intn(5), Values: 2 + rng.Intn(3)}
				goal, err := PredFromNames(NewSession(synth.MustGenerate(cfg, seed)).Universe(),
					[2]string{fmt.Sprintf("A%d", 1+rng.Intn(2)), fmt.Sprintf("B%d", 1+rng.Intn(2))})
				if err != nil {
					t.Fatal(err)
				}
				row := func() Tuple {
					return Tuple{strconv.Itoa(rng.Intn(cfg.Values)), strconv.Itoa(rng.Intn(cfg.Values))}
				}
				deltas := map[string]Delta{
					"insertR": {InsertR: []Tuple{row()}},
					"insertP": {InsertP: []Tuple{row()}},
					"deleteR": {DeleteR: []int{rng.Intn(cfg.Rows)}},
					"deleteP": {DeleteP: []int{rng.Intn(cfg.Rows)}},
				}
				for _, kind := range kinds {
					for _, k := range []int{1, 2} {
						tag := fmt.Sprintf("seed %d %s k=%d", seed, kind, k)
						inst := synth.MustGenerate(cfg, seed)
						cs := PrecomputeClasses(inst)
						opts := []Option{WithStrategy(strat), WithSeed(5)}
						pc := NewPolicyCache(0)
						questionSeq(t, NewSession(inst, append(opts, WithPrecomputedClasses(cs), WithPolicyCache(pc, "syn"))...), goal, k)

						upd, err := ApplyDelta(inst, cs, deltas[kind])
						if err != nil {
							t.Fatalf("%s: %v", tag, err)
						}
						inv := pc.ApplyUpdate("syn", upd)
						if inv.TreesDropped != 1 || inv.NodesRetired == 0 {
							t.Fatalf("%s: update dropped %+v; want the one warm tree", tag, inv)
						}
						if st := pc.Stats(); st.Nodes != 0 || st.Invalidated != uint64(inv.NodesRetired) {
							t.Fatalf("%s: %d v0 nodes still resident after the update (stats %+v)", tag, st.Nodes, st)
						}

						opts = append(opts, WithPrecomputedClasses(upd.Classes))
						plain := questionSeq(t, NewSession(upd.To, opts...), goal, k)
						cached := questionSeq(t, NewSession(upd.To, append(opts, WithPolicyCache(pc, "syn"))...), goal, k)
						sameSeq(t, tag, plain, cached)
					}
				}
			}
		})
	}
}
