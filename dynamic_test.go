package joininference

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"reflect"
	"strconv"
	"testing"

	"repro/internal/inference"
	"repro/internal/paperdata"
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

func TestApplyDeltaBasics(t *testing.T) {
	inst := paperdata.FlightHotel()
	cs := PrecomputeClasses(inst)

	if _, err := ApplyDelta(inst, nil, Delta{InsertR: []Tuple{{"X", "Y", "Z"}}}); err == nil {
		t.Fatal("ApplyDelta accepted nil classes")
	}

	ins := Delta{InsertR: []Tuple{{"NYC", "Lille", "BA"}}, InsertP: []Tuple{{"Lille", "BA"}}}
	upd, err := ApplyDelta(inst, cs, ins)
	if err != nil {
		t.Fatal(err)
	}
	if upd.Version() != 1 || upd.From != inst || upd.To.Version() != 1 {
		t.Fatalf("versions: upd.Version=%d From=%d To=%d", upd.Version(), upd.From.Version(), upd.To.Version())
	}
	if want := PrecomputeClasses(upd.To).Len(); upd.Classes.Len() != want {
		t.Fatalf("maintained %d classes, fresh compute has %d", upd.Classes.Len(), want)
	}
	if got := upd.Classes.Len() - cs.Len() + upd.ClassesRetired(); upd.ClassesMinted() != got {
		t.Fatalf("minted %d does not balance: %d classes -> %d, retired %d",
			upd.ClassesMinted(), cs.Len(), upd.Classes.Len(), upd.ClassesRetired())
	}

	// The old version is no longer the tip.
	if _, err := ApplyDelta(inst, cs, ins); !errors.Is(err, ErrStaleVersion) {
		t.Fatalf("delta on a stale tip: %v", err)
	}

	// Deletes retire what they empty, and the maintained set still matches a
	// fresh compute on the new version.
	upd2, err := ApplyDelta(upd.To, upd.Classes, Delta{DeleteR: []int{4}, DeleteP: []int{0}})
	if err != nil {
		t.Fatal(err)
	}
	if upd2.Version() != 2 {
		t.Fatalf("version after second delta = %d", upd2.Version())
	}
	if want := PrecomputeClasses(upd2.To).Len(); upd2.Classes.Len() != want {
		t.Fatalf("after delete: maintained %d classes, fresh compute has %d", upd2.Classes.Len(), want)
	}
}

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
	// The session is on v0; upd2 starts at v1.
	if err := s.ApplyUpdate(upd2); !errors.Is(err, ErrStaleVersion) {
		t.Fatalf("out-of-order update: %v", err)
	}
	if err := s.ApplyUpdate(nil); err == nil {
		t.Fatal("nil update accepted")
	}
	if err := s.ApplyUpdate(upd1); err != nil {
		t.Fatal(err)
	}
	if err := s.ApplyUpdate(upd2); err != nil {
		t.Fatal(err)
	}
	if s.InstanceVersion() != 2 {
		t.Fatalf("session version = %d", s.InstanceVersion())
	}
}

// pruneForResume drops transcript entries whose rows the update deleted —
// exactly what a client resuming an old snapshot on the new version would
// have to do — and keeps everything else (RNG position included) intact.
func pruneForResume(snap *Snapshot, to *Instance) *Snapshot {
	out := *snap
	out.Transcript = nil
	for _, e := range snap.Transcript {
		if !to.RAlive(e.RIndex) {
			continue
		}
		if e.PIndex >= 0 && !to.PAlive(e.PIndex) {
			continue
		}
		out.Transcript = append(out.Transcript, e)
	}
	out.Asked = len(out.Transcript)
	return &out
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
			t.Fatalf("%s: maintained session step %d: %v", tag, steps, err)
		}
		qb, err := b.NextQuestions(ctx, 1)
		if err != nil {
			t.Fatalf("%s: resumed session step %d: %v", tag, steps, err)
		}
		if len(qa) != len(qb) {
			t.Fatalf("%s: step %d: maintained has %d questions, resumed %d", tag, steps, len(qa), len(qb))
		}
		if len(qa) == 0 {
			break
		}
		if qa[0].Ref() != qb[0].Ref() {
			t.Fatalf("%s: step %d: maintained asks %v, resumed asks %v", tag, steps, qa[0].Ref(), qb[0].Ref())
		}
		l, err := oracle.Label(ctx, qa[0])
		if err != nil {
			t.Fatalf("%s: oracle: %v", tag, err)
		}
		if err := a.Answer(qa[0], l); err != nil {
			t.Fatalf("%s: maintained answer: %v", tag, err)
		}
		if err := b.Answer(qb[0], l); err != nil {
			t.Fatalf("%s: resumed answer: %v", tag, err)
		}
		steps++
	}
	return steps
}

// runDynamicDifferential is the acceptance differential for dynamic
// instances: a session maintained across deltas with ApplyUpdate must be
// indistinguishable — bit-identical question sequence, same inferred
// predicate — from a session snapshotted before each delta, pruned of
// deleted rows, and resumed fresh on the new version. When an update makes
// the recorded answers inconsistent (semijoin positives orphaned by a
// delete), the resume must fail the same way.
func runDynamicDifferential(t *testing.T, tag string, semijoinKind bool, mkOpts func(cs *ClassSet) []Option, inst *Instance, goal Pred, deltas []Delta) {
	t.Helper()
	cs := PrecomputeClasses(inst)
	oracle := HonestOracle(goal)

	var a *Session
	if semijoinKind {
		a = NewSemijoinSession(inst, mkOpts(nil)...)
	} else {
		a = NewSession(inst, mkOpts(cs)...)
	}
	driveRecording(t, a, goal, 2)

	var b *Session
	for i, d := range deltas {
		snap, err := a.Snapshot()
		if err != nil {
			t.Fatalf("%s: snapshot before delta %d: %v", tag, i, err)
		}
		upd, err := ApplyDelta(inst, cs, d)
		if err != nil {
			t.Fatalf("%s: delta %d: %v", tag, i, err)
		}
		inst, cs = upd.To, upd.Classes

		aerr := a.ApplyUpdate(upd)
		var bopts []Option
		if semijoinKind {
			bopts = mkOpts(nil)
		} else {
			bopts = mkOpts(upd.Classes)
		}
		b, err = ResumeSession(upd.To, pruneForResume(snap, upd.To), bopts...)

		if aerr != nil {
			// The maintained path refused the update; the rebuild-from-
			// scratch path must refuse the same snapshot for the same reason.
			if !errors.Is(aerr, ErrInconsistent) {
				t.Fatalf("%s: delta %d: ApplyUpdate: %v", tag, i, aerr)
			}
			if err == nil || !errors.Is(err, ErrInconsistent) {
				t.Fatalf("%s: delta %d: maintained session inconsistent but resume says %v", tag, i, err)
			}
			return
		}
		if err != nil {
			t.Fatalf("%s: delta %d: resume on v%d: %v", tag, i, upd.Version(), err)
		}
		if a.InstanceVersion() != upd.Version() {
			t.Fatalf("%s: session version %d after update to %d", tag, a.InstanceVersion(), upd.Version())
		}

		steps := -1
		if i < len(deltas)-1 {
			steps = 2 // keep the run alive for the next delta
		}
		lockstep(t, fmt.Sprintf("%s/v%d", tag, upd.Version()), a, b, oracle, steps)
	}

	// Both drove to completion on the final version; the inferred
	// predicates must select the same rows.
	if a.Done() != b.Done() {
		t.Fatalf("%s: maintained done=%v, resumed done=%v", tag, a.Done(), b.Done())
	}
	if semijoinKind {
		if !reflect.DeepEqual(SemijoinEval(inst, a.Inferred()), SemijoinEval(inst, b.Inferred())) {
			t.Fatalf("%s: inferred semijoins differ", tag)
		}
	} else {
		if !reflect.DeepEqual(Join(inst, a.Inferred()), Join(inst, b.Inferred())) {
			t.Fatalf("%s: inferred joins differ", tag)
		}
	}
}

// TestDynamicMaintainedMatchesResumeJoin runs the differential for every
// built-in strategy at Workers 1 and 4, over a delta script that inserts
// into both relations, deletes answered rows from both, and then mixes the
// two — so examples are dropped, classes are minted and retired, and the
// remap is non-trivial. A BU run at Figure 7 scale adds one row and drops
// it again.
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
				mkOpts := func(cs *ClassSet) []Option {
					opts := []Option{WithStrategy(strat), WithSeed(7), WithParallelism(workers)}
					if cs != nil {
						opts = append(opts, WithPrecomputedClasses(cs))
					}
					return opts
				}
				runDynamicDifferential(t, t.Name(), false, mkOpts, inst, goal, deltas)
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
		mkOpts := func(cs *ClassSet) []Option {
			return []Option{WithStrategy(StrategyBU), WithPrecomputedClasses(cs)}
		}
		runDynamicDifferential(t, t.Name(), false, mkOpts, inst, goal, fig7Deltas)
	})
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
			mkOpts := func(*ClassSet) []Option {
				return []Option{WithParallelism(workers)}
			}
			runDynamicDifferential(t, t.Name(), true, mkOpts, inst, goal, deltas)
		})
	}
}

// TestSemijoinUpdateOrphanedPositive: deleting every witness of a
// positively-answered R row makes the recorded sample unsatisfiable. The
// update must surface ErrInconsistent and leave the session untouched on
// its old version (for the owner to retire).
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
	if err := s.ApplyUpdate(upd); !errors.Is(err, ErrInconsistent) {
		t.Fatalf("orphaned positive: %v", err)
	}
	if s.InstanceVersion() != 0 || s.Questions() != 1 {
		t.Fatalf("failed update mutated the session: version %d, asked %d", s.InstanceVersion(), s.Questions())
	}
	// The session is still serviceable on the old version.
	if _, err := s.NextQuestions(context.Background(), 1); err != nil {
		t.Fatalf("session unusable after refused update: %v", err)
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
			if err := s.ApplyUpdate(upd); err != nil {
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
