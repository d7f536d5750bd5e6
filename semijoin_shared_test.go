package joininference_test

import (
	"context"
	"slices"
	"testing"

	joininference "repro"
	"repro/internal/paperdata"
	"repro/internal/service"
)

// newEx21Manager returns a manager over a fresh registry holding the
// Example 2.1 semijoin instance.
func newEx21Manager(t *testing.T) (*service.Manager, *service.Registry) {
	t.Helper()
	reg := service.NewRegistry()
	if err := reg.RegisterInstance("ex21", paperdata.Example21()); err != nil {
		t.Fatal(err)
	}
	m, err := service.NewManager(reg, service.Options{})
	if err != nil {
		t.Fatal(err)
	}
	return m, reg
}

// answerHonestly answers a managed session's questions one at a time, at
// most n of them (n < 0: until done), and returns the refs it answered.
func answerHonestly(t *testing.T, m *service.Manager, id string, goal joininference.Pred, n int) []joininference.QuestionRef {
	t.Helper()
	ctx := context.Background()
	var refs []joininference.QuestionRef
	for ; n != 0; n-- {
		qs, err := m.Questions(ctx, id, 1)
		if err != nil {
			t.Fatal(err)
		}
		if len(qs) == 0 {
			break
		}
		l, err := joininference.HonestOracle(goal).Label(ctx, qs[0])
		if err != nil {
			t.Fatal(err)
		}
		if _, err := m.Answer(ctx, id, []service.Answer{{QuestionRef: qs[0].Ref(), Positive: bool(l)}}); err != nil {
			t.Fatal(err)
		}
		refs = append(refs, qs[0].Ref())
	}
	return refs
}

// inferredRows evaluates a managed session's inferred semijoin on inst.
func inferredRows(t *testing.T, m *service.Manager, id string, inst *joininference.Instance) []int {
	t.Helper()
	info, err := m.Predicate(id)
	if err != nil {
		t.Fatal(err)
	}
	if !info.Done {
		t.Fatalf("session %s not done", id)
	}
	theta, err := joininference.ParsePredicate(joininference.NewSemijoinSession(inst).Universe(), info.Predicate)
	if err != nil {
		t.Fatal(err)
	}
	return joininference.SemijoinEval(inst, theta)
}

// TestSemijoinSharedWitnessTableDynamic: semijoin sessions made by Create
// and by Resume on one registry entry share that version's witness table,
// so the second session fills no rows. An ingest that changes the witness
// sets gives the new version its own table, which Create and migration
// adopt; a session migrated onto it and one resumed fresh on it ask
// identical questions, the fresh one fills no rows, and both end
// instance-equivalent. A session never adopts another version's table.
func TestSemijoinSharedWitnessTableDynamic(t *testing.T) {
	inst := paperdata.Example21()
	goal, err := joininference.PredFromNames(joininference.NewSemijoinSession(inst).Universe(), [2]string{"A1", "B2"})
	if err != nil {
		t.Fatal(err)
	}
	params := service.Params{Instance: "ex21", Semijoin: true}

	// A snapshot one answer in, taken on another registry.
	src, _ := newEx21Manager(t)
	a, err := src.Create(params)
	if err != nil {
		t.Fatal(err)
	}
	answerHonestly(t, src, a.ID, goal, 1)
	snap, err := src.Snapshot(a.ID)
	if err != nil {
		t.Fatal(err)
	}

	m, reg := newEx21Manager(t)
	v0, err := reg.Get("ex21")
	if err != nil {
		t.Fatal(err)
	}
	tbl0 := joininference.WitnessTable(v0.Classes)
	if n := tbl0.Filled(); n != 0 {
		t.Fatalf("%d rows filled before any session", n)
	}
	resumed, err := m.Resume(snap)
	if err != nil {
		t.Fatal(err)
	}
	if len(answerHonestly(t, m, resumed.ID, goal, -1)) == 0 {
		t.Fatal("resumed session asked nothing")
	}
	filled := tbl0.Filled()
	if filled == 0 {
		t.Fatal("the resumed session filled no row of the entry's table")
	}
	created, err := m.Create(params)
	if err != nil {
		t.Fatal(err)
	}
	answerHonestly(t, m, created.ID, goal, -1)
	if !slices.Equal(inferredRows(t, m, created.ID, v0.Inst), inferredRows(t, m, resumed.ID, v0.Inst)) {
		t.Fatal("created and resumed sessions inferred different semijoins")
	}
	if n := tbl0.Filled(); n != filled {
		t.Fatalf("the created session filled %d more rows", n-filled)
	}

	// A live session one answer in crosses an ingest of P rows.
	live, err := m.Create(params)
	if err != nil {
		t.Fatal(err)
	}
	answerHonestly(t, m, live.ID, goal, 1)
	liveSnap, err := m.Snapshot(live.ID)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := m.Ingest("ex21", joininference.Delta{InsertP: []joininference.Tuple{{"2", "2", "1"}, {"0", "0", "1"}}}); err != nil {
		t.Fatal(err)
	}
	v1, err := reg.Get("ex21")
	if err != nil {
		t.Fatal(err)
	}
	tbl1 := joininference.WitnessTable(v1.Classes)
	if tbl1 == tbl0 || tbl1.Instance() != v1.Inst || tbl1.Filled() != 0 {
		t.Fatal("the new version does not have its own, empty witness table")
	}
	// Create reports the new session's halt state, which scans rows.
	if _, err := m.Create(params); err != nil {
		t.Fatal(err)
	}
	if tbl1.Filled() == 0 {
		t.Fatal("the created session filled no row of the entry's table")
	}
	migratedRefs := answerHonestly(t, m, live.ID, goal, -1)
	filled1 := tbl1.Filled()
	liveSnap.ID = "" // a fresh id: resume beside the migrated session
	fresh, err := m.Resume(liveSnap)
	if err != nil {
		t.Fatal(err)
	}
	freshRefs := answerHonestly(t, m, fresh.ID, goal, -1)
	if !slices.Equal(migratedRefs, freshRefs) {
		t.Fatalf("migrated session asked %v, fresh session on v1 asked %v", migratedRefs, freshRefs)
	}
	if n := tbl1.Filled(); n != filled1 {
		t.Fatalf("the fresh session filled %d more rows", n-filled1)
	}
	if !slices.Equal(inferredRows(t, m, live.ID, v1.Inst), inferredRows(t, m, fresh.ID, v1.Inst)) {
		t.Fatal("migrated and fresh sessions are not instance-equivalent")
	}
	if tbl0.Filled() != filled {
		t.Fatal("the old version's table changed after the ingest")
	}

	changed := false
	for ri := 0; ri < v1.Inst.R.Len(); ri++ {
		w0, w1 := tbl0.Witnesses(ri), tbl1.Witnesses(ri)
		changed = changed || !slices.EqualFunc(w0, w1, joininference.Pred.Equal)
	}
	if !changed {
		t.Fatal("the ingest changed no witness set")
	}

	// Classes of another version do not lend a session their table: a v0
	// session handed v1's classes runs like one with none.
	ctx := context.Background()
	want, err := joininference.Run(ctx, joininference.NewSemijoinSession(v0.Inst), joininference.HonestOracle(goal))
	if err != nil {
		t.Fatal(err)
	}
	got, err := joininference.Run(ctx, joininference.NewSemijoinSession(v0.Inst, joininference.WithPrecomputedClasses(v1.Classes)), joininference.HonestOracle(goal))
	if err != nil {
		t.Fatal(err)
	}
	if got.Questions != want.Questions || !slices.Equal(joininference.SemijoinEval(v0.Inst, got.Inferred), joininference.SemijoinEval(v0.Inst, want.Inferred)) {
		t.Fatalf("v0 session with v1's classes: %d questions, %v; without: %d, %v", got.Questions, got.Inferred, want.Questions, want.Inferred)
	}
}
