package service

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	joininference "repro"
	"repro/internal/paperdata"
	"repro/internal/store"
)

func ex21Goal(t *testing.T) joininference.Pred {
	t.Helper()
	u := joininference.NewSemijoinSession(paperdata.Example21()).Universe()
	goal, err := joininference.PredFromNames(u, [2]string{"A1", "B2"})
	if err != nil {
		t.Fatal(err)
	}
	return goal
}

// driveN answers the first n questions of a managed session honestly,
// returning their refs in order.
func driveN(t *testing.T, m *Manager, id string, goal joininference.Pred, k, n int) []joininference.QuestionRef {
	t.Helper()
	ctx := context.Background()
	oracle := joininference.HonestOracle(goal)
	var refs []joininference.QuestionRef
	for len(refs) < n {
		qs, err := m.Questions(ctx, id, k)
		if err != nil {
			t.Fatal(err)
		}
		if len(qs) == 0 {
			return refs
		}
		answers := make([]Answer, len(qs))
		for i, q := range qs {
			l, err := oracle.Label(ctx, q)
			if err != nil {
				t.Fatal(err)
			}
			answers[i] = Answer{QuestionRef: q.Ref(), Positive: bool(l)}
			refs = append(refs, q.Ref())
		}
		if _, err := m.Answer(ctx, id, answers); err != nil {
			t.Fatal(err)
		}
	}
	return refs
}

// TestManagerStoreRestartDifferential is the acceptance proof for
// store-backed persistence: for every strategy, join and semijoin sessions,
// and Workers ∈ {1, 4}, a session interrupted by a full server restart —
// manager closed, log backend closed and reopened from disk — resumes with
// bit-identical remaining questions to the uninterrupted reference.
func TestManagerStoreRestartDifferential(t *testing.T) {
	for _, id := range joininference.KnownStrategies() {
		for _, semijoin := range []bool{false, true} {
			for _, workers := range []int{1, 4} {
				name := fmt.Sprintf("%s/semijoin=%v/workers=%d", id, semijoin, workers)
				t.Run(name, func(t *testing.T) {
					instance, goal := "flights", flightGoal(t)
					if semijoin {
						instance, goal = "ex21", ex21Goal(t)
					}
					params := Params{
						Instance: instance, Semijoin: semijoin,
						Strategy: id, Seed: 7, Parallelism: workers,
					}
					// Uninterrupted reference.
					ref0, err := NewManager(testRegistry(t), Options{})
					if err != nil {
						t.Fatal(err)
					}
					info, err := ref0.Create(params)
					if err != nil {
						t.Fatal(err)
					}
					ref := driveToDone(t, ref0, info.ID, goal, 2)

					// Interrupted run over a real on-disk store.
					dir := t.TempDir()
					kv, err := store.OpenLog(dir, store.LogOptions{})
					if err != nil {
						t.Fatal(err)
					}
					m1, err := NewManager(testRegistry(t), Options{Store: kv})
					if err != nil {
						t.Fatal(err)
					}
					info, err = m1.Create(params)
					if err != nil {
						t.Fatal(err)
					}
					got := driveN(t, m1, info.ID, goal, 2, 2)
					if err := m1.Close(context.Background()); err != nil {
						t.Fatal(err)
					}
					if err := kv.Close(); err != nil {
						t.Fatal(err)
					}

					// Full restart: reopen the log, rebuild the manager, and
					// finish the session under its original id.
					kv2, err := store.OpenLog(dir, store.LogOptions{})
					if err != nil {
						t.Fatal(err)
					}
					defer kv2.Close()
					m2, err := NewManager(testRegistry(t), Options{Store: kv2})
					if err != nil {
						t.Fatal(err)
					}
					restored, err := m2.Get(info.ID)
					if err != nil {
						t.Fatalf("session %s not restored: %v", info.ID, err)
					}
					if restored.Asked != len(got) {
						t.Fatalf("restored at %d answers, want %d", restored.Asked, len(got))
					}
					got = append(got, driveToDone(t, m2, info.ID, goal, 2)...)
					if len(got) != len(ref) {
						t.Fatalf("%d questions across the restart, want %d\n got %v\nwant %v", len(got), len(ref), got, ref)
					}
					for i := range ref {
						if got[i] != ref[i] {
							t.Fatalf("question %d = %+v, want %+v", i, got[i], ref[i])
						}
					}
				})
			}
		}
	}
	t.Run("refused-writes", testRestartAfterRefusedWrites)
}

// testRestartAfterRefusedWrites: creates, answers and ingests that the
// store could not read back are refused before they are acknowledged, so
// every acknowledged one is restored after a restart.
func testRestartAfterRefusedWrites(t *testing.T) {
	kv := store.NewMem()
	boot := func() *Manager {
		reg := testRegistry(t)
		reg.AttachStore(kv, nil)
		m, err := NewManager(reg, Options{Store: kv})
		if err != nil {
			t.Fatal(err)
		}
		return m
	}
	m1 := boot()
	for _, p := range []Params{
		{Instance: "flights", Budget: -1},
		{Instance: "flights", Budget: math.MaxInt32 + 1},
		{Instance: "flights", Parallelism: math.MaxInt32 + 1},
		{Instance: "flights", ErrorBudget: math.MaxInt32 + 1},
		{Instance: "ex21", Semijoin: true, Budget: -3},
	} {
		if _, err := m1.Create(p); !errors.Is(err, joininference.ErrBadSnapshot) {
			t.Errorf("create %+v: %v, want ErrBadSnapshot", p, err)
		}
	}
	soft, err := m1.Create(Params{Instance: "flights", ErrorBudget: 1})
	if err != nil {
		t.Fatal(err)
	}
	qs, err := m1.Questions(context.Background(), soft.ID, 1)
	if err != nil || len(qs) != 1 {
		t.Fatalf("questions: %v, %v", qs, err)
	}
	vote := Answer{QuestionRef: qs[0].Ref(), Worker: strings.Repeat("w", 257)}
	if _, err := m1.Answer(context.Background(), soft.ID, []Answer{vote}); !errors.Is(err, joininference.ErrBadSnapshot) {
		t.Errorf("answer with a 257-byte worker id: %v, want ErrBadSnapshot", err)
	}
	vote.Worker = "ann"
	if res, err := m1.Answer(context.Background(), soft.ID, []Answer{vote}); err != nil || res.Applied != 1 {
		t.Fatalf("answer: %+v, %v", res, err)
	}
	huge := joininference.Delta{InsertR: []joininference.Tuple{{"NYC", strings.Repeat("x", 2<<20), "BA"}}}
	if _, err := m1.Ingest("flights", huge); !errors.Is(err, ErrBadDelta) {
		t.Errorf("ingest of a 2 MiB value: %v, want ErrBadDelta", err)
	}
	if _, err := m1.Ingest("flights", joininference.Delta{InsertR: []joininference.Tuple{{"NYC", "Lille", "BA"}}}); err != nil {
		t.Fatal(err)
	}
	if err := m1.Close(context.Background()); err != nil {
		t.Fatal(err)
	}

	m2 := boot()
	if info, err := m2.Get(soft.ID); err != nil || info.Soft == nil || info.Soft.Votes != 1 {
		t.Errorf("restored soft session: %+v, %v", info, err)
	}
	if len(m2.List()) != 1 {
		t.Errorf("restored %d sessions, want 1", len(m2.List()))
	}
	if h := m2.Health(); h.Restore == nil || h.Restore.Status != "ok" || h.Status != "ok" {
		t.Errorf("health after restart: %+v, restore %+v", h, h.Restore)
	}
	if e, err := m2.reg.Get("flights"); err != nil || e.Inst.Version() != 1 {
		t.Errorf("restored instance: %+v, %v", e, err)
	}
}

// TestManagerStoreKill9: store-backed sessions write through on create and
// on every applied answer, so a hard crash — no Close, no eviction, no
// Sync — loses nothing that was acked. Simulated by copying the log file
// bytes mid-run and restarting from the copy: those bytes are exactly what
// a kill -9 leaves on disk.
func TestManagerStoreKill9(t *testing.T) {
	goal := flightGoal(t)
	params := Params{Instance: "flights", Strategy: joininference.StrategyL2S, Seed: 7}

	ref0, err := NewManager(testRegistry(t), Options{})
	if err != nil {
		t.Fatal(err)
	}
	info, err := ref0.Create(params)
	if err != nil {
		t.Fatal(err)
	}
	ref := driveToDone(t, ref0, info.ID, goal, 2)

	dir := t.TempDir()
	kv, err := store.OpenLog(dir, store.LogOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer kv.Close()
	m1, err := NewManager(testRegistry(t), Options{Store: kv})
	if err != nil {
		t.Fatal(err)
	}
	info, err = m1.Create(params)
	if err != nil {
		t.Fatal(err)
	}
	got := driveN(t, m1, info.ID, goal, 2, 2)

	// The crash: neither the manager nor the log is closed — the on-disk
	// bytes at this instant are all a restart gets.
	data, err := os.ReadFile(filepath.Join(dir, "store.log"))
	if err != nil {
		t.Fatal(err)
	}
	dir2 := t.TempDir()
	if err := os.WriteFile(filepath.Join(dir2, "store.log"), data, 0o644); err != nil {
		t.Fatal(err)
	}
	kv2, err := store.OpenLog(dir2, store.LogOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer kv2.Close()
	m2, err := NewManager(testRegistry(t), Options{Store: kv2})
	if err != nil {
		t.Fatal(err)
	}
	restored, err := m2.Get(info.ID)
	if err != nil {
		t.Fatalf("session %s lost in the crash: %v", info.ID, err)
	}
	if restored.Asked != len(got) {
		t.Fatalf("restored at %d answers, want %d", restored.Asked, len(got))
	}
	got = append(got, driveToDone(t, m2, info.ID, goal, 2)...)
	if len(got) != len(ref) {
		t.Fatalf("%d questions across the crash, want %d", len(got), len(ref))
	}
	for i := range ref {
		if got[i] != ref[i] {
			t.Fatalf("question %d = %+v, want %+v", i, got[i], ref[i])
		}
	}
}

// TestStoreCorruptSessionRecordSkipped: one corrupt session record must not
// take boot down or poison other sessions — it is skipped and reported as
// an incomplete restore. Records are binary only: a JSON snapshot body
// stored under a session key (the wire form of GET /sessions/{id}/snapshot)
// is a corrupt record like any other.
func TestStoreCorruptSessionRecordSkipped(t *testing.T) {
	goal := flightGoal(t)
	m0, err := NewManager(testRegistry(t), Options{})
	if err != nil {
		t.Fatal(err)
	}
	donor, err := m0.Create(Params{Instance: "flights", Strategy: joininference.StrategyBU})
	if err != nil {
		t.Fatal(err)
	}
	driveN(t, m0, donor.ID, goal, 1, 2)
	snap, err := m0.Snapshot(donor.ID)
	if err != nil {
		t.Fatal(err)
	}
	jsonBody, err := json.Marshal(snap)
	if err != nil {
		t.Fatal(err)
	}

	for _, tc := range []struct {
		name string
		body []byte
	}{
		{"garbage-binary", []byte("JSRV garbage")},
		{"json-body", jsonBody},
	} {
		t.Run(tc.name, func(t *testing.T) {
			kv := store.NewMem()
			m1, err := NewManager(testRegistry(t), Options{Store: kv})
			if err != nil {
				t.Fatal(err)
			}
			info, err := m1.Create(Params{Instance: "flights"})
			if err != nil {
				t.Fatal(err)
			}
			driveN(t, m1, info.ID, goal, 1, 1)
			if err := m1.Close(context.Background()); err != nil {
				t.Fatal(err)
			}
			const corrupt = "deadbeefdeadbeef"
			if err := kv.Put(store.SessionKey(corrupt), tc.body); err != nil {
				t.Fatal(err)
			}
			m2, err := NewManager(testRegistry(t), Options{Store: kv})
			if err != nil {
				t.Fatalf("boot failed on a corrupt record: %v", err)
			}
			if _, err := m2.Get(info.ID); err != nil {
				t.Errorf("healthy session lost: %v", err)
			}
			if _, err := m2.Get(corrupt); !errors.Is(err, ErrSessionNotFound) {
				t.Errorf("corrupt session served: %v", err)
			}
			if h := m2.Health(); h.Restore == nil || h.Restore.Status != "incomplete" {
				t.Errorf("restore health = %+v, want incomplete", h.Restore)
			}
		})
	}
}

// TestStoreDeleteEvictedSession: deleting a session that lives only as a
// store record removes the record, so it does not resurrect on reboot.
func TestStoreDeleteEvictedSession(t *testing.T) {
	kv := store.NewMem()
	now := time.Now()
	clock := func() time.Time { return now }
	m, err := NewManager(testRegistry(t), Options{Store: kv, TTL: time.Minute, Now: clock})
	if err != nil {
		t.Fatal(err)
	}
	info, err := m.Create(Params{Instance: "flights"})
	if err != nil {
		t.Fatal(err)
	}
	now = now.Add(2 * time.Minute)
	if n := m.SweepExpired(); n != 1 {
		t.Fatalf("evicted %d, want 1", n)
	}
	if _, ok, _ := kv.Get(store.SessionKey(info.ID)); !ok {
		t.Fatal("evicted session not persisted to the store")
	}
	if err := m.Delete(info.ID); err != nil {
		t.Fatal(err)
	}
	if _, ok, _ := kv.Get(store.SessionKey(info.ID)); ok {
		t.Error("deleted session's record survived")
	}
	m2, err := NewManager(testRegistry(t), Options{Store: kv})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := m2.Get(info.ID); !errors.Is(err, ErrSessionNotFound) {
		t.Errorf("deleted session resurrected: %v", err)
	}
}

// TestManagerMetricsIncludeStore: /metrics carries the store's counters
// once a store is configured.
func TestManagerMetricsIncludeStore(t *testing.T) {
	kv := store.NewMem()
	m, err := NewManager(testRegistry(t), Options{Store: kv})
	if err != nil {
		t.Fatal(err)
	}
	info, err := m.Create(Params{Instance: "flights"})
	if err != nil {
		t.Fatal(err)
	}
	driveN(t, m, info.ID, flightGoal(t), 1, 1)
	if err := m.Close(context.Background()); err != nil {
		t.Fatal(err)
	}
	got := samples(t, exposition(t, m.opts.Obs.Metrics))
	if st := kv.Stats(); got["store_puts_total"] != float64(st.Puts) || got["store_keys"] != float64(st.Keys) ||
		st.Puts == 0 || st.Keys == 0 {
		t.Errorf("store_puts_total = %v, store_keys = %v; store stats %+v",
			got["store_puts_total"], got["store_keys"], st)
	}
	// Without a store the store families are omitted entirely.
	m2, err := NewManager(testRegistry(t), Options{})
	if err != nil {
		t.Fatal(err)
	}
	if text := exposition(t, m2.opts.Obs.Metrics); strings.Contains(text, "store_puts_total") {
		t.Error("storeless manager reports store metrics")
	}
}

// TestRegistryStoreCache: with a store attached, an instance loads from its
// source exactly once across registry rebuilds — later boots decode the
// cached record — and a corrupt record falls back to the source.
func TestRegistryStoreCache(t *testing.T) {
	kv := store.NewMem()
	loads := 0
	newReg := func() *Registry {
		reg := NewRegistry()
		if err := reg.Register("flights", func() (*joininference.Instance, error) {
			loads++
			return paperdata.FlightHotel(), nil
		}); err != nil {
			t.Fatal(err)
		}
		reg.AttachStore(kv, nil)
		return reg
	}
	e1, err := newReg().Get("flights")
	if err != nil {
		t.Fatal(err)
	}
	if loads != 1 {
		t.Fatalf("first boot loaded %d times", loads)
	}
	// Second boot: served from the store, the source never runs.
	e2, err := newReg().Get("flights")
	if err != nil {
		t.Fatal(err)
	}
	if loads != 1 {
		t.Fatalf("second boot re-loaded the source (%d loads)", loads)
	}
	// The cached entry drives sessions identically to the source-loaded one.
	goal := flightGoal(t)
	seq := func(e *Entry) []joininference.QuestionRef {
		m := NewRegistry()
		if err := m.RegisterInstance("i", e.Inst); err != nil {
			t.Fatal(err)
		}
		mgr, err := NewManager(m, Options{})
		if err != nil {
			t.Fatal(err)
		}
		info, err := mgr.Create(Params{Instance: "i", Strategy: joininference.StrategyL2S})
		if err != nil {
			t.Fatal(err)
		}
		return driveToDone(t, mgr, info.ID, goal, 1)
	}
	a, b := seq(e1), seq(e2)
	if len(a) != len(b) {
		t.Fatalf("cached entry asks %d questions, source entry %d", len(b), len(a))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("question %d diverged: %+v vs %+v", i, b[i], a[i])
		}
	}
	// Corrupt record: fall back to the source and overwrite the record.
	if err := kv.Put(store.RegistryKey("flights"), []byte("garbage")); err != nil {
		t.Fatal(err)
	}
	if _, err := newReg().Get("flights"); err != nil {
		t.Fatal(err)
	}
	if loads != 2 {
		t.Fatalf("corrupt record did not fall back to the source (%d loads)", loads)
	}
	if _, err := newReg().Get("flights"); err != nil {
		t.Fatal(err)
	}
	if loads != 2 {
		t.Fatal("fallback did not rewrite the cache record")
	}
}
