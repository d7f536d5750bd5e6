package service

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"slices"
	"strings"
	"sync"
	"testing"

	joininference "repro"
	"repro/internal/paperdata"
	"repro/internal/store"
)

// answerSteps answers up to n questions of a managed session honestly, one
// at a time.
func answerSteps(t *testing.T, m *Manager, id string, goal joininference.Pred, n int) {
	t.Helper()
	ctx := context.Background()
	oracle := joininference.HonestOracle(goal)
	for i := 0; i < n; i++ {
		qs, err := m.Questions(ctx, id, 1)
		if err != nil {
			t.Fatal(err)
		}
		if len(qs) == 0 {
			return
		}
		l, err := oracle.Label(ctx, qs[0])
		if err != nil {
			t.Fatal(err)
		}
		if _, err := m.Answer(ctx, id, []Answer{{QuestionRef: qs[0].Ref(), Positive: bool(l)}}); err != nil {
			t.Fatal(err)
		}
	}
}

// TestManagerIngestMigratesLiveSessions: a session answering across an
// ingest is carried onto the new version at its next question boundary,
// and asks the same remaining questions as a session resumed from its
// pre-ingest snapshot directly on the new version.
func TestManagerIngestMigratesLiveSessions(t *testing.T) {
	reg := testRegistry(t)
	m, err := NewManager(reg, Options{})
	if err != nil {
		t.Fatal(err)
	}
	goal := flightGoal(t)
	info, err := m.Create(Params{Instance: "flights", Strategy: joininference.StrategyBU})
	if err != nil {
		t.Fatal(err)
	}
	answerSteps(t, m, info.ID, goal, 2)
	snap, err := m.Snapshot(info.ID)
	if err != nil {
		t.Fatal(err)
	}

	res, err := m.Ingest("flights", joininference.Delta{
		InsertR: []joininference.Tuple{{"NYC", "Lille", "BA"}},
		InsertP: []joininference.Tuple{{"Lille", "BA"}},
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Instance != "flights" || res.Version != 1 || res.Classes == 0 {
		t.Fatalf("ingest result: %+v", res)
	}
	entry, err := reg.Get("flights")
	if err != nil {
		t.Fatal(err)
	}
	if entry.Inst.Version() != 1 {
		t.Fatalf("registry serves version %d", entry.Inst.Version())
	}

	// The snapshot resumes directly on v1; the live session migrates lazily.
	// From here on both must ask bit-identical questions.
	snap.ID = "" // force a fresh id
	resumed, err := m.Resume(snap)
	if err != nil {
		t.Fatal(err)
	}
	migratedRefs := driveToDone(t, m, info.ID, goal, 1)
	resumedRefs := driveToDone(t, m, resumed.ID, goal, 1)
	if len(migratedRefs) != len(resumedRefs) {
		t.Fatalf("migrated asked %d questions, resumed %d", len(migratedRefs), len(resumedRefs))
	}
	for i := range migratedRefs {
		if migratedRefs[i] != resumedRefs[i] {
			t.Fatalf("question %d: migrated asks %v, resumed asks %v", i, migratedRefs[i], resumedRefs[i])
		}
	}

	met := m.Metrics()
	if met.DeltasIngested != 1 || m.reg.Stats().Ingests != 1 {
		t.Fatalf("ingest counters: %+v, registry %+v", met, m.reg.Stats())
	}
	if met.SessionsMigrated == 0 {
		t.Fatal("no session counted as migrated")
	}
}

// TestManagerIngestDeleteDropsAnswers: deleting rows a session already
// answered about drops those examples on migration; the session keeps
// serving and completes on the new data.
func TestManagerIngestDeleteDropsAnswers(t *testing.T) {
	m, err := NewManager(testRegistry(t), Options{})
	if err != nil {
		t.Fatal(err)
	}
	goal := flightGoal(t)
	info, err := m.Create(Params{Instance: "flights", Strategy: joininference.StrategyBU})
	if err != nil {
		t.Fatal(err)
	}
	answerSteps(t, m, info.ID, goal, 3)
	if _, err := m.Ingest("flights", joininference.Delta{DeleteR: []int{0}, DeleteP: []int{0}}); err != nil {
		t.Fatal(err)
	}
	driveToDone(t, m, info.ID, goal, 2)
	p, err := m.Predicate(info.ID)
	if err != nil {
		t.Fatal(err)
	}
	if !p.Done {
		t.Fatalf("session did not finish after a delete migration: %+v", p)
	}
}

// TestRestoreAfterDeleteMatchesLiveMove is the restart path across a
// delete: sessions persisted before an ingest deleted the row of their
// first answer restore on the new version with that answer dropped, the
// same replay a live session runs when it moves, so no restore fails and
// each restored session asks what an in-process twin moved live asks.
func TestRestoreAfterDeleteMatchesLiveMove(t *testing.T) {
	ctx := context.Background()
	kv, err := store.OpenLog(t.TempDir(), store.LogOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer kv.Close()
	reg := testRegistry(t)
	reg.AttachStore(kv, nil)
	m1, err := NewManager(reg, Options{Store: kv})
	if err != nil {
		t.Fatal(err)
	}
	semiGoal, err := joininference.PredFromNames(joininference.NewSession(paperdata.Example21()).Universe(), [2]string{"A1", "B2"})
	if err != nil {
		t.Fatal(err)
	}
	type leg struct {
		params Params
		goal   joininference.Pred
		id     string
		twin   *joininference.Session
		// kept counts the answers not about the deleted row.
		kept int
	}
	legs := []*leg{
		{params: Params{Instance: "flights", Strategy: joininference.StrategyBU}, goal: flightGoal(t)},
		{params: Params{Instance: "ex21", Semijoin: true}, goal: semiGoal},
	}
	for _, l := range legs {
		info, err := m1.Create(l.params)
		if err != nil {
			t.Fatal(err)
		}
		l.id = info.ID
		entry, err := reg.Get(l.params.Instance)
		if err != nil {
			t.Fatal(err)
		}
		opts := []joininference.Option{joininference.WithStrategy(l.params.Strategy), joininference.WithPrecomputedClasses(entry.Classes)}
		if l.params.Semijoin {
			l.twin = joininference.NewSemijoinSession(entry.Inst, opts...)
		} else {
			l.twin = joininference.NewSession(entry.Inst, opts...)
		}
		answerSteps(t, m1, l.id, l.goal, 2)
		snap, err := m1.Snapshot(l.id)
		if err != nil {
			t.Fatal(err)
		}
		if len(snap.Snapshot.Transcript) != 2 {
			t.Fatalf("%s: %d answers recorded, want 2", l.params.Instance, len(snap.Snapshot.Transcript))
		}
		for _, e := range snap.Snapshot.Transcript {
			q, err := l.twin.QuestionByRef(joininference.QuestionRef{RIndex: e.RIndex, PIndex: e.PIndex})
			if err != nil {
				t.Fatal(err)
			}
			if err := l.twin.Answer(q, joininference.Label(e.Positive)); err != nil {
				t.Fatal(err)
			}
		}
		dead := snap.Snapshot.Transcript[0].RIndex
		for _, e := range snap.Snapshot.Transcript {
			if e.RIndex != dead {
				l.kept++
			}
		}
		if _, err := m1.Ingest(l.params.Instance, joininference.Delta{DeleteR: []int{dead}}); err != nil {
			t.Fatal(err)
		}
	}
	if err := m1.Close(ctx); err != nil {
		t.Fatal(err)
	}

	m2, err := NewManager(reg, Options{Store: kv})
	if err != nil {
		t.Fatal(err)
	}
	defer m2.Close(ctx)
	if n := m2.restoreFails.Load(); n != 0 {
		t.Fatalf("%d session records failed to restore", n)
	}
	for _, l := range legs {
		if _, err := m2.Get(l.id); err != nil {
			t.Fatalf("%s: session lost across the restart: %v", l.params.Instance, err)
		}
		entry, err := reg.Get(l.params.Instance)
		if err != nil {
			t.Fatal(err)
		}
		if err := l.twin.MoveTo(entry.Inst, entry.Classes); err != nil {
			t.Fatal(err)
		}
		if got := l.twin.Questions(); got != l.kept {
			t.Fatalf("%s: twin kept %d answers after the delete, want %d", l.params.Instance, got, l.kept)
		}
		oracle := joininference.HonestOracle(l.goal)
		for step := 0; ; step++ {
			qs, err := m2.Questions(ctx, l.id, 1)
			if err != nil {
				t.Fatal(err)
			}
			tqs, err := l.twin.NextQuestions(ctx, 1)
			if err != nil {
				t.Fatal(err)
			}
			if len(qs) != len(tqs) || len(qs) > 0 && qs[0].Ref() != tqs[0].Ref() {
				t.Fatalf("%s: step %d: restored asks %v, live twin asks %v", l.params.Instance, step, qs, tqs)
			}
			if len(qs) == 0 {
				break
			}
			lab, err := oracle.Label(ctx, qs[0])
			if err != nil {
				t.Fatal(err)
			}
			if _, err := m2.Answer(ctx, l.id, []Answer{{QuestionRef: qs[0].Ref(), Positive: bool(lab)}}); err != nil {
				t.Fatal(err)
			}
			if err := l.twin.Answer(tqs[0], lab); err != nil {
				t.Fatal(err)
			}
		}
	}
}

// TestAnswerAboutDeletedRowNotRecorded: an answer about a pair whose R row
// an ingest deleted after the client fetched it is not recorded, even
// though the pair's T-class lives on through another pair: the manager
// reports it skipped. What the session does record then survives a later
// move and a restart unchanged, so no acknowledged answer vanishes.
func TestAnswerAboutDeletedRowNotRecorded(t *testing.T) {
	ctx := context.Background()
	kv, err := store.OpenLog(t.TempDir(), store.LogOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer kv.Close()
	reg := testRegistry(t)
	reg.AttachStore(kv, nil)
	m1, err := NewManager(reg, Options{Store: kv})
	if err != nil {
		t.Fatal(err)
	}
	goal := flightGoal(t)
	info, err := m1.Create(Params{Instance: "flights", Strategy: joininference.StrategyBU})
	if err != nil {
		t.Fatal(err)
	}
	// Flight(Paris,Lille,AF) × Hotel(Paris,None) shares its T-class
	// {From=City} with Flight(Paris,NYC,AF) × Hotel(Paris,None), so the
	// class outlives the delete of Flight row 0.
	ref := joininference.QuestionRef{RIndex: 0, PIndex: 1}
	if _, err := m1.Ingest("flights", joininference.Delta{DeleteR: []int{0}}); err != nil {
		t.Fatal(err)
	}
	res, err := m1.Answer(ctx, info.ID, []Answer{{QuestionRef: ref, Positive: false}})
	if err != nil {
		t.Fatal(err)
	}
	if res.Applied != 0 || res.Skipped != 1 || res.Asked != 0 {
		t.Fatalf("answer about a deleted row: %+v; want it skipped, nothing recorded", res)
	}
	answerSteps(t, m1, info.ID, goal, 2)
	if _, err := m1.Ingest("flights", joininference.Delta{InsertR: []joininference.Tuple{{"NYC", "Lille", "BA"}}}); err != nil {
		t.Fatal(err)
	}
	if _, err := m1.Questions(ctx, info.ID, 1); err != nil {
		t.Fatal(err)
	}
	live, err := m1.Snapshot(info.ID)
	if err != nil {
		t.Fatal(err)
	}
	if n := len(live.Snapshot.Transcript); n != 2 {
		t.Fatalf("%d answers held after the move, want 2: %+v", n, live.Snapshot.Transcript)
	}
	if err := m1.Close(ctx); err != nil {
		t.Fatal(err)
	}
	m2, err := NewManager(reg, Options{Store: kv})
	if err != nil {
		t.Fatal(err)
	}
	defer m2.Close(ctx)
	restored, err := m2.Snapshot(info.ID)
	if err != nil {
		t.Fatal(err)
	}
	if !slices.Equal(restored.Snapshot.Transcript, live.Snapshot.Transcript) {
		t.Fatalf("restart holds %+v, the live session held %+v", restored.Snapshot.Transcript, live.Snapshot.Transcript)
	}
}

// TestManagerIngestRetiresInconsistentSession: a semijoin positive whose
// last witness is deleted cannot follow the instance — the session is
// retired at its next question boundary and the caller sees the underlying
// ErrInconsistent.
func TestManagerIngestRetiresInconsistentSession(t *testing.T) {
	m, err := NewManager(testRegistry(t), Options{})
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	info, err := m.Create(Params{Instance: "ex21", Semijoin: true})
	if err != nil {
		t.Fatal(err)
	}
	qs, err := m.Questions(ctx, info.ID, 1)
	if err != nil || len(qs) == 0 {
		t.Fatalf("questions: %v, %d", err, len(qs))
	}
	if _, err := m.Answer(ctx, info.ID, []Answer{{QuestionRef: qs[0].Ref(), Positive: true}}); err != nil {
		t.Fatal(err)
	}
	if _, err := m.Ingest("ex21", joininference.Delta{DeleteP: []int{0, 1, 2}}); err != nil {
		t.Fatal(err)
	}
	if _, err := m.Questions(ctx, info.ID, 1); !errors.Is(err, joininference.ErrInconsistent) {
		t.Fatalf("migrating an orphaned positive: %v", err)
	}
	if _, err := m.Get(info.ID); !errors.Is(err, ErrSessionNotFound) {
		t.Fatalf("retired session still resident: %v", err)
	}
	if met := m.Metrics(); met.SessionsRetired != 1 {
		t.Fatalf("retire counter: %+v", met)
	}
}

func TestManagerIngestRejectsBadDeltas(t *testing.T) {
	m, err := NewManager(testRegistry(t), Options{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := m.Ingest("nope", joininference.Delta{DeleteR: []int{0}}); !errors.Is(err, ErrUnknownInstance) {
		t.Fatalf("unknown instance: %v", err)
	}
	// Wrong arity and out-of-range deletes are client errors.
	if _, err := m.Ingest("flights", joininference.Delta{InsertR: []joininference.Tuple{{"only-one"}}}); !errors.Is(err, ErrBadDelta) {
		t.Fatalf("arity mismatch: %v", err)
	}
	if _, err := m.Ingest("flights", joininference.Delta{DeleteR: []int{99}}); !errors.Is(err, ErrBadDelta) {
		t.Fatalf("out-of-range delete: %v", err)
	}
	// A value over the delta log's limit would be appended, then fail
	// replay at every boot.
	huge := joininference.Delta{InsertR: []joininference.Tuple{{"NYC", strings.Repeat("x", 2<<20), "BA"}}}
	if _, err := m.Ingest("flights", huge); !errors.Is(err, ErrBadDelta) {
		t.Fatalf("oversized value: %v", err)
	}
}

// TestRegistryBootReplaysDeltaLog is the restart path: a store-backed
// registry serves the cached instance without re-parsing when the cache is
// at the tip, and rolls a stale cache forward by replaying the delta log —
// as after a crash between the delta append and the cache write-back.
func TestRegistryBootReplaysDeltaLog(t *testing.T) {
	kv := store.NewMem()
	boot := func() *Registry {
		reg := NewRegistry()
		if err := reg.RegisterInstance("flights", paperdata.FlightHotel()); err != nil {
			t.Fatal(err)
		}
		reg.AttachStore(kv, nil)
		return reg
	}

	reg1 := boot()
	if _, err := reg1.Get("flights"); err != nil {
		t.Fatal(err)
	}
	if st := reg1.Stats(); st.Reparses != 1 || st.CacheHits != 0 {
		t.Fatalf("first boot: %+v", st)
	}
	upd, err := reg1.Ingest("flights", joininference.Delta{
		InsertR: []joininference.Tuple{{"NYC", "Lille", "BA"}},
	})
	if err != nil {
		t.Fatal(err)
	}

	// Second boot: the cache was written back at the tip — no parse, no
	// replay.
	reg2 := boot()
	e2, err := reg2.Get("flights")
	if err != nil {
		t.Fatal(err)
	}
	if e2.Inst.Version() != 1 {
		t.Fatalf("second boot serves version %d", e2.Inst.Version())
	}
	if st := reg2.Stats(); st.CacheHits != 1 || st.Reparses != 0 || st.DeltasReplayed != 0 {
		t.Fatalf("second boot: %+v", st)
	}
	sameClassList(t, "cached", e2.Inst, e2.Classes, joininference.PrecomputeClasses(e2.Inst))

	// Crash window: two deltas reached the log but no cache write-back
	// did. Boot must decode the stale cache, roll the rows forward through
	// both and compute the tip's classes.
	d2 := joininference.Delta{InsertP: []joininference.Tuple{{"Lille", "AA"}}}
	d3 := joininference.Delta{InsertR: []joininference.Tuple{{"Lille", "Paris", "AA"}}, DeleteP: []int{1}}
	for i, d := range []joininference.Delta{d2, d3} {
		if err := store.AppendDelta(kv, "flights", int64(2+i), d); err != nil {
			t.Fatal(err)
		}
	}
	reg3 := boot()
	e3, err := reg3.Get("flights")
	if err != nil {
		t.Fatal(err)
	}
	if e3.Inst.Version() != 3 {
		t.Fatalf("third boot serves version %d", e3.Inst.Version())
	}
	if st := reg3.Stats(); st.CacheHits != 1 || st.Reparses != 0 || st.DeltasReplayed != 2 {
		t.Fatalf("third boot: %+v", st)
	}
	// The rolled-forward classes are the tip's, class by class, and the
	// live ingest chain reaches the same rows.
	sameClassList(t, "replayed", e3.Inst, e3.Classes, joininference.PrecomputeClasses(e3.Inst))
	live := upd
	for _, d := range []joininference.Delta{d2, d3} {
		if live, err = joininference.ApplyDelta(live.To, live.Classes, d); err != nil {
			t.Fatal(err)
		}
	}
	if !bytes.Equal(joininference.EncodeInstanceCache(e3.Inst, e3.Classes), joininference.EncodeInstanceCache(live.To, live.Classes)) {
		t.Fatal("replayed instance differs from the live ingest chain")
	}
}

// classLister is a custom strategy that records every class of its
// session, in order, as its Theta and Count, and then asks the first
// informative class.
type classLister struct{ classes []string }

func (l *classLister) Name() string { return "classLister" }

func (l *classLister) Next(v joininference.StrategyView) int {
	if l.classes == nil {
		for ci := 0; ci < v.NumClasses(); ci++ {
			l.classes = append(l.classes, fmt.Sprintf("%v×%d", v.ClassPred(ci), v.ClassCount(ci)))
		}
	}
	if ics := v.InformativeClasses(); len(ics) > 0 {
		return ics[0]
	}
	return -1
}

// sameClassList fails unless got and want, two class sets of inst, list
// the same classes in the same order: the cache record pins every class's
// representative and Count, and a session's StrategyView every Theta.
func sameClassList(t *testing.T, tag string, inst *joininference.Instance, got, want *joininference.ClassSet) {
	t.Helper()
	if !bytes.Equal(joininference.EncodeInstanceCache(inst, got), joininference.EncodeInstanceCache(inst, want)) {
		t.Fatalf("%s: classes differ in number, order, representative or count", tag)
	}
	list := func(cs *joininference.ClassSet) []string {
		l := &classLister{}
		s := joininference.NewSession(inst, joininference.WithPrecomputedClasses(cs), joininference.WithCustomStrategy(l))
		if _, err := s.NextQuestions(context.Background(), 1); err != nil {
			t.Fatalf("%s: %v", tag, err)
		}
		return l.classes
	}
	if g, w := list(got), list(want); len(g) == 0 || !slices.Equal(g, w) {
		t.Fatalf("%s: classes %v, want %v", tag, g, w)
	}
}

// TestRegistryBootCorruptDeltaLogSticks: a corrupt delta log is the only
// record of ingested rows — serving without it would fork history, so the
// slot must fail (and keep failing) instead of falling back to the source.
func TestRegistryBootCorruptDeltaLogSticks(t *testing.T) {
	kv := store.NewMem()
	reg1 := NewRegistry()
	if err := reg1.RegisterInstance("flights", paperdata.FlightHotel()); err != nil {
		t.Fatal(err)
	}
	reg1.AttachStore(kv, nil)
	if _, err := reg1.Ingest("flights", joininference.Delta{
		InsertR: []joininference.Tuple{{"NYC", "Lille", "BA"}},
	}); err != nil {
		t.Fatal(err)
	}
	if err := kv.Put(store.DeltaKey("flights", 1), []byte{0xFF, 0xFF}); err != nil {
		t.Fatal(err)
	}
	// The cache is at the tip here, so corruption only bites when the log
	// must actually replay — strip the cache to force it.
	if err := kv.Delete(store.RegistryKey("flights")); err != nil {
		t.Fatal(err)
	}

	reg2 := NewRegistry()
	if err := reg2.RegisterInstance("flights", paperdata.FlightHotel()); err != nil {
		t.Fatal(err)
	}
	reg2.AttachStore(kv, nil)
	if _, err := reg2.Get("flights"); !errors.Is(err, store.ErrCorrupt) {
		t.Fatalf("corrupt log served: %v", err)
	}
	if _, err := reg2.Get("flights"); !errors.Is(err, store.ErrCorrupt) {
		t.Fatalf("slot error not sticky: %v", err)
	}
}

// TestHTTPIngest exercises POST /instances/{id}/rows and the new metrics
// fields end to end. An ingest drops the policy cache's trees of the old
// version: the response counts them and their nodes, the nodes match the
// growth of policy_cache_invalidated_total, and an ingest with no warm tree
// at its old version drops nothing.
func TestHTTPIngest(t *testing.T) {
	m, err := NewManager(testRegistry(t), Options{PolicyCache: joininference.NewPolicyCache(0)})
	if err != nil {
		t.Fatal(err)
	}
	srv := httptest.NewServer(NewHandler(m))
	defer srv.Close()
	client := srv.Client()

	info, err := m.Create(Params{Instance: "flights", Strategy: joininference.StrategyTD})
	if err != nil {
		t.Fatal(err)
	}
	driveToDone(t, m, info.ID, flightGoal(t), 1)
	before := samples(t, getMetrics(t, client, srv.URL))["policy_cache_invalidated_total"]

	var res IngestResult
	doJSON(t, client, "POST", srv.URL+"/instances/flights/rows",
		map[string]any{"insert_r": [][]string{{"NYC", "Lille", "BA"}}, "insert_p": [][]string{{"Lille", "BA"}}},
		200, &res)
	if res.Version != 1 || res.Classes == 0 {
		t.Fatalf("ingest response: %+v", res)
	}
	if res.PolicyTreesDropped != 1 || res.PolicyNodesRetired <= 0 {
		t.Fatalf("ingest after a warm walk dropped %d trees, %d nodes; want the one tree and its nodes", res.PolicyTreesDropped, res.PolicyNodesRetired)
	}
	if got := samples(t, getMetrics(t, client, srv.URL))["policy_cache_invalidated_total"] - before; got != float64(res.PolicyNodesRetired) {
		t.Fatalf("policy_cache_invalidated_total grew by %v, ingest reported %d nodes", got, res.PolicyNodesRetired)
	}
	doJSON(t, client, "POST", srv.URL+"/instances/nope/rows",
		map[string]any{"delete_r": []int{0}}, 404, nil)
	doJSON(t, client, "POST", srv.URL+"/instances/flights/rows",
		map[string]any{"insert_r": [][]string{{"wrong-arity"}}}, 400, nil)
	doJSON(t, client, "POST", srv.URL+"/instances/flights/rows",
		map[string]any{"delete_p": []int{99}}, 400, nil)

	res = IngestResult{}
	doJSON(t, client, "POST", srv.URL+"/instances/flights/rows",
		map[string]any{"delete_r": []int{0}}, 200, &res)
	if res.Version != 2 || res.PolicyTreesDropped != 0 || res.PolicyNodesRetired != 0 {
		t.Fatalf("ingest with no warm tree at v1: %+v; want version 2 and nothing dropped", res)
	}
	if got := samples(t, getMetrics(t, client, srv.URL)); got["deltas_ingested_total"] != 2 || m.reg.Stats().Ingests != 2 {
		t.Fatalf("deltas_ingested_total = %v, registry %+v after two ingests", got["deltas_ingested_total"], m.reg.Stats())
	}
}

// TestIngestStoreFaultRefusedThenDurable: an ingest whose delta cannot
// reach the delta log is refused with 503 + Retry-After and changes
// nothing — no version advance, no session migration — so no acknowledged
// version can vanish at the next boot. Once the store recovers, the same
// delta lands at version 1 and survives a restart.
func TestIngestStoreFaultRefusedThenDurable(t *testing.T) {
	kv := store.NewMem()
	fault := store.NewFault(kv, store.FaultConfig{Seed: 1, ErrorRate: 1})
	fault.SetEnabled(false)
	boot := func(kv store.KV) (*Registry, *Manager) {
		reg := testRegistry(t)
		reg.AttachStore(kv, nil)
		m, err := NewManager(reg, Options{Store: kv})
		if err != nil {
			t.Fatal(err)
		}
		return reg, m
	}
	reg, m := boot(fault)
	srv := httptest.NewServer(NewHandler(m))
	defer srv.Close()
	goal := flightGoal(t)
	info, err := m.Create(Params{Instance: "flights", Strategy: joininference.StrategyBU})
	if err != nil {
		t.Fatal(err)
	}
	answerSteps(t, m, info.ID, goal, 1)
	delta := map[string]any{"insert_r": [][]string{{"NYC", "Lille", "BA"}}, "insert_p": [][]string{{"Lille", "BA"}}}

	// Outage: every store operation fails.
	fault.SetEnabled(true)
	body, err := json.Marshal(delta)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := srv.Client().Post(srv.URL+"/instances/flights/rows", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable || resp.Header.Get("Retry-After") == "" {
		t.Fatalf("ingest during outage: status %d, Retry-After %q; want 503 with Retry-After",
			resp.StatusCode, resp.Header.Get("Retry-After"))
	}
	if _, err := m.Ingest("flights", joininference.Delta{InsertR: []joininference.Tuple{{"NYC", "Lille", "BA"}}}); !errors.Is(err, ErrStoreUnavailable) {
		t.Fatalf("Manager.Ingest during outage: %v, want ErrStoreUnavailable", err)
	}
	entry, err := reg.Get("flights")
	if err != nil {
		t.Fatal(err)
	}
	if v := entry.Inst.Version(); v != 0 {
		t.Fatalf("refused ingest advanced the instance to version %d", v)
	}
	if _, err := m.Questions(context.Background(), info.ID, 1); err != nil {
		t.Fatal(err)
	}
	if met := m.Metrics(); met.DeltasIngested != 0 || met.SessionsMigrated != 0 {
		t.Fatalf("refused ingest counted or migrated: ingested %d, migrated %d", met.DeltasIngested, met.SessionsMigrated)
	}

	// Recovery: the same delta lands at version 1 and live sessions follow.
	fault.SetEnabled(false)
	var res IngestResult
	doJSON(t, srv.Client(), http.MethodPost, srv.URL+"/instances/flights/rows", delta, http.StatusOK, &res)
	if res.Version != 1 {
		t.Fatalf("ingest after recovery: version %d, want 1", res.Version)
	}
	answerSteps(t, m, info.ID, goal, 1)
	if met := m.Metrics(); met.DeltasIngested != 1 || met.SessionsMigrated != 1 {
		t.Fatalf("after recovery: ingested %d, migrated %d; want 1, 1", met.DeltasIngested, met.SessionsMigrated)
	}
	srv.Close()
	if err := m.Close(context.Background()); err != nil {
		t.Fatal(err)
	}

	// Restart on the same store: the acknowledged version is still there.
	reg2, m2 := boot(kv)
	entry2, err := reg2.Get("flights")
	if err != nil {
		t.Fatal(err)
	}
	if v := entry2.Inst.Version(); v != 1 {
		t.Fatalf("restart serves version %d, want 1", v)
	}
	if _, err := m2.Get(info.ID); err != nil {
		t.Fatalf("session lost across the restart: %v", err)
	}
	driveToDone(t, m2, info.ID, goal, 1)
}

// TestConcurrentIngestAndAnswering runs sessions and ingests concurrently;
// under -race this is the proof that the versioned registry, lazy session
// migration and policy-cache invalidation are safe together.
func TestConcurrentIngestAndAnswering(t *testing.T) {
	reg := testRegistry(t)
	m, err := NewManager(reg, Options{PolicyCache: joininference.NewPolicyCache(0)})
	if err != nil {
		t.Fatal(err)
	}
	goal := flightGoal(t)
	const ingests = 12

	stop := make(chan struct{})
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			ctx := context.Background()
			oracle := joininference.HonestOracle(goal)
			for {
				select {
				case <-stop:
					return
				default:
				}
				info, err := m.Create(Params{Instance: "flights", Strategy: joininference.StrategyBU, Seed: seed})
				if err != nil {
					t.Errorf("create: %v", err)
					return
				}
				for {
					qs, err := m.Questions(ctx, info.ID, 2)
					if err != nil {
						// A concurrent ingest can retire the session between
						// calls; anything else is a bug.
						if errors.Is(err, joininference.ErrInconsistent) || errors.Is(err, ErrSessionNotFound) {
							break
						}
						t.Errorf("questions: %v", err)
						return
					}
					if len(qs) == 0 {
						if err := m.Delete(info.ID); err != nil && !errors.Is(err, ErrSessionNotFound) {
							t.Errorf("delete: %v", err)
						}
						break
					}
					answers := make([]Answer, len(qs))
					for i, q := range qs {
						l, err := oracle.Label(ctx, q)
						if err != nil {
							t.Errorf("oracle: %v", err)
							return
						}
						answers[i] = Answer{QuestionRef: q.Ref(), Positive: bool(l)}
					}
					if _, err := m.Answer(ctx, info.ID, answers); err != nil {
						if errors.Is(err, joininference.ErrInconsistent) || errors.Is(err, ErrSessionNotFound) {
							break
						}
						t.Errorf("answer: %v", err)
						return
					}
				}
			}
		}(int64(w + 1))
	}

	for i := 0; i < ingests; i++ {
		_, err := m.Ingest("flights", joininference.Delta{
			InsertR: []joininference.Tuple{{fmt.Sprintf("City%d", i), "NYC", "AA"}},
			InsertP: []joininference.Tuple{{fmt.Sprintf("City%d", i), "AF"}},
		})
		if err != nil {
			t.Fatalf("ingest %d: %v", i, err)
		}
	}
	close(stop)
	wg.Wait()

	if met, st := m.Metrics(), reg.Stats(); met.DeltasIngested != ingests || st.Ingests != ingests {
		t.Fatalf("ingest counters: %+v, registry %+v", met, st)
	}
	entry, err := reg.Get("flights")
	if err != nil {
		t.Fatal(err)
	}
	if entry.Inst.Version() != ingests {
		t.Fatalf("final version %d, want %d", entry.Inst.Version(), ingests)
	}
}
