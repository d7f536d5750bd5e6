package service

import (
	"context"
	"errors"
	"sync"
	"testing"
	"time"

	joininference "repro"
	"repro/internal/paperdata"
	"repro/internal/store"
)

// testRegistry returns a registry with the paper's running examples: the
// flight/hotel join instance and the Example 2.1 semijoin instance.
func testRegistry(t *testing.T) *Registry {
	t.Helper()
	reg := NewRegistry()
	if err := reg.RegisterInstance("flights", paperdata.FlightHotel()); err != nil {
		t.Fatal(err)
	}
	if err := reg.RegisterInstance("ex21", paperdata.Example21()); err != nil {
		t.Fatal(err)
	}
	return reg
}

func flightGoal(t *testing.T) joininference.Pred {
	t.Helper()
	u := joininference.NewSession(paperdata.FlightHotel()).Universe()
	goal, err := joininference.PredFromNames(u, [2]string{"To", "City"}, [2]string{"Airline", "Discount"})
	if err != nil {
		t.Fatal(err)
	}
	return goal
}

// driveToDone answers a managed session honestly until no questions remain,
// returning the refs of every applied question in order.
func driveToDone(t *testing.T, m *Manager, id string, goal joininference.Pred, k int) []joininference.QuestionRef {
	t.Helper()
	ctx := context.Background()
	oracle := joininference.HonestOracle(goal)
	var refs []joininference.QuestionRef
	for {
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
}

func TestManagerLifecycle(t *testing.T) {
	m, err := NewManager(testRegistry(t), Options{})
	if err != nil {
		t.Fatal(err)
	}
	info, err := m.Create(Params{Instance: "flights", Strategy: joininference.StrategyL2S})
	if err != nil {
		t.Fatal(err)
	}
	if info.Done || info.Asked != 0 || info.Classes == 0 {
		t.Fatalf("fresh session info: %+v", info)
	}
	goal := flightGoal(t)
	driveToDone(t, m, info.ID, goal, 2)
	p, err := m.Predicate(info.ID)
	if err != nil {
		t.Fatal(err)
	}
	if !p.Done {
		t.Error("session should be done")
	}
	u := joininference.NewSession(paperdata.FlightHotel()).Universe()
	if p.Predicate != goal.Format(u) {
		t.Errorf("inferred %q, want %q", p.Predicate, goal.Format(u))
	}
	if p.SQL == "" {
		t.Error("empty SQL rendering")
	}
	snap, err := m.Snapshot(info.ID)
	if err != nil {
		t.Fatal(err)
	}
	if snap.Instance != "flights" || snap.Snapshot.Asked != p.Asked {
		t.Errorf("snapshot %+v inconsistent with predicate info %+v", snap, p)
	}
	if err := m.Delete(info.ID); err != nil {
		t.Fatal(err)
	}
	if _, err := m.Get(info.ID); !errors.Is(err, ErrSessionNotFound) {
		t.Errorf("want ErrSessionNotFound after delete, got %v", err)
	}
}

func TestManagerSemijoinSession(t *testing.T) {
	m, err := NewManager(testRegistry(t), Options{})
	if err != nil {
		t.Fatal(err)
	}
	info, err := m.Create(Params{Instance: "ex21", Semijoin: true})
	if err != nil {
		t.Fatal(err)
	}
	u := joininference.NewSemijoinSession(paperdata.Example21()).Universe()
	goal, err := joininference.PredFromNames(u, [2]string{"A1", "B2"})
	if err != nil {
		t.Fatal(err)
	}
	refs := driveToDone(t, m, info.ID, goal, 2)
	if len(refs) == 0 {
		t.Fatal("no questions asked")
	}
	for _, r := range refs {
		if !r.Semijoin() {
			t.Errorf("join ref %v from a semijoin session", r)
		}
	}
	p, err := m.Predicate(info.ID)
	if err != nil {
		t.Fatal(err)
	}
	if !p.Done {
		t.Error("semijoin session should be done")
	}
}

func TestManagerRejectsBadCreates(t *testing.T) {
	m, err := NewManager(testRegistry(t), Options{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := m.Create(Params{Instance: "no-such"}); !errors.Is(err, ErrUnknownInstance) {
		t.Errorf("want ErrUnknownInstance, got %v", err)
	}
	if _, err := m.Create(Params{Instance: "flights", Strategy: "BOGUS"}); !errors.Is(err, joininference.ErrUnknownStrategy) {
		t.Errorf("want ErrUnknownStrategy, got %v", err)
	}
	// A snapshot naming a strategy this build does not know must be
	// rejected at resume, not turned into a session that 400s forever.
	if _, err := m.Resume(&SessionSnapshot{Instance: "flights", Snapshot: &joininference.Snapshot{
		Version: joininference.SnapshotVersion, Kind: joininference.SnapshotKindJoin, Strategy: "L3S",
	}}); !errors.Is(err, joininference.ErrUnknownStrategy) {
		t.Errorf("want ErrUnknownStrategy on resume, got %v", err)
	}
}

// TestResumeSanitizesHostileID: a client-supplied id becomes a store key,
// so anything but the 16-hex newID shape is replaced with a fresh id before
// it can name a record.
func TestResumeSanitizesHostileID(t *testing.T) {
	kv := store.NewMem()
	m, err := NewManager(testRegistry(t), Options{Store: kv})
	if err != nil {
		t.Fatal(err)
	}
	info, err := m.Resume(&SessionSnapshot{
		ID:       "../../tmp/evil",
		Instance: "flights",
		Snapshot: &joininference.Snapshot{Version: joininference.SnapshotVersion, Kind: joininference.SnapshotKindJoin},
	})
	if err != nil {
		t.Fatal(err)
	}
	if info.ID == "../../tmp/evil" || !validID(info.ID) {
		t.Errorf("hostile id survived as %q", info.ID)
	}
	if err := m.Close(context.Background()); err != nil {
		t.Fatal(err)
	}
	data, ok, err := kv.Get(store.SessionKey(info.ID))
	if err != nil || !ok {
		t.Fatalf("session not persisted under the sanitized id: ok=%v err=%v", ok, err)
	}
	if snap, err := decodeServiceSnapshot(data); err != nil || snap.ID != info.ID {
		t.Errorf("record under the sanitized id: %+v, %v", snap, err)
	}
	err = kv.Scan(store.SessionPrefix(), func(key, _ []byte) bool {
		if id, err := store.SessionID(key); err != nil || id == "../../tmp/evil" {
			t.Errorf("store key %q names id %q (err %v)", key, id, err)
		}
		return true
	})
	if err != nil {
		t.Fatal(err)
	}
}

// TestAnswerBatchRejectsBadRefUpfront: a malformed ref rejects the whole
// batch before any answer is recorded.
func TestAnswerBatchRejectsBadRefUpfront(t *testing.T) {
	m, err := NewManager(testRegistry(t), Options{})
	if err != nil {
		t.Fatal(err)
	}
	info, err := m.Create(Params{Instance: "flights"})
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	qs, err := m.Questions(ctx, info.ID, 1)
	if err != nil || len(qs) == 0 {
		t.Fatalf("questions: %v, %d", err, len(qs))
	}
	batch := []Answer{
		{QuestionRef: qs[0].Ref(), Positive: true},
		{QuestionRef: joininference.QuestionRef{RIndex: 99, PIndex: 99}, Positive: true},
	}
	res, err := m.Answer(ctx, info.ID, batch)
	if err == nil {
		t.Fatal("batch with a malformed ref accepted")
	}
	if res.Applied != 0 {
		t.Errorf("applied %d answers before rejecting the batch, want 0", res.Applied)
	}
	got, err := m.Get(info.ID)
	if err != nil {
		t.Fatal(err)
	}
	if got.Asked != 0 {
		t.Errorf("session recorded %d answers from a rejected batch", got.Asked)
	}
}

// TestManagerConcurrentAccess exercises the per-session locking under the
// race detector: goroutines driving their own sessions in parallel, plus
// several goroutines hammering one shared session (where answers may
// legitimately be skipped as already-decided).
func TestManagerConcurrentAccess(t *testing.T) {
	m, err := NewManager(testRegistry(t), Options{})
	if err != nil {
		t.Fatal(err)
	}
	goal := flightGoal(t)
	ctx := context.Background()
	oracle := joininference.HonestOracle(goal)

	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func(n int) {
			defer wg.Done()
			info, err := m.Create(Params{Instance: "flights", Seed: int64(n), Strategy: joininference.StrategyRND})
			if err != nil {
				t.Error(err)
				return
			}
			for {
				qs, err := m.Questions(ctx, info.ID, 2)
				if err != nil || len(qs) == 0 {
					if err != nil {
						t.Error(err)
					}
					return
				}
				answers := make([]Answer, len(qs))
				for j, q := range qs {
					l, _ := oracle.Label(ctx, q)
					answers[j] = Answer{QuestionRef: q.Ref(), Positive: bool(l)}
				}
				if _, err := m.Answer(ctx, info.ID, answers); err != nil {
					t.Error(err)
					return
				}
			}
		}(i)
	}

	shared, err := m.Create(Params{Instance: "flights"})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 4; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				qs, err := m.Questions(ctx, shared.ID, 2)
				if err != nil || len(qs) == 0 {
					if err != nil {
						t.Error(err)
					}
					return
				}
				answers := make([]Answer, len(qs))
				for j, q := range qs {
					l, _ := oracle.Label(ctx, q)
					answers[j] = Answer{QuestionRef: q.Ref(), Positive: bool(l)}
				}
				// Races between answerers are expected to skip; only real
				// failures are errors.
				if _, err := m.Answer(ctx, shared.ID, answers); err != nil {
					t.Error(err)
					return
				}
			}
		}()
	}
	wg.Wait()
	p, err := m.Predicate(shared.ID)
	if err != nil {
		t.Fatal(err)
	}
	if !p.Done {
		t.Error("shared session not done after concurrent drive")
	}
	u := joininference.NewSession(paperdata.FlightHotel()).Universe()
	if p.Predicate != goal.Format(u) {
		t.Errorf("concurrent drive inferred %q, want %q", p.Predicate, goal.Format(u))
	}
}

func TestTTLEvictionPersistsAndRestores(t *testing.T) {
	kv := store.NewMem()
	var mu sync.Mutex
	now := time.Unix(1000, 0)
	clock := func() time.Time {
		mu.Lock()
		defer mu.Unlock()
		return now
	}
	advance := func(d time.Duration) {
		mu.Lock()
		now = now.Add(d)
		mu.Unlock()
	}

	m, err := NewManager(testRegistry(t), Options{TTL: time.Minute, Store: kv, Now: clock})
	if err != nil {
		t.Fatal(err)
	}
	info, err := m.Create(Params{Instance: "flights"})
	if err != nil {
		t.Fatal(err)
	}
	goal := flightGoal(t)
	ctx := context.Background()
	oracle := joininference.HonestOracle(goal)
	qs, err := m.Questions(ctx, info.ID, 1)
	if err != nil || len(qs) == 0 {
		t.Fatalf("questions: %v, %d", err, len(qs))
	}
	l, _ := oracle.Label(ctx, qs[0])
	if _, err := m.Answer(ctx, info.ID, []Answer{{QuestionRef: qs[0].Ref(), Positive: bool(l)}}); err != nil {
		t.Fatal(err)
	}

	if n := m.SweepExpired(); n != 0 {
		t.Fatalf("swept %d fresh sessions", n)
	}
	advance(2 * time.Minute)
	if n := m.SweepExpired(); n != 1 {
		t.Fatalf("swept %d, want 1", n)
	}
	if _, err := m.Get(info.ID); !errors.Is(err, ErrSessionNotFound) {
		t.Fatalf("evicted session still present: %v", err)
	}
	data, ok, err := kv.Get(store.SessionKey(info.ID))
	if err != nil || !ok {
		t.Fatalf("no persisted record: ok=%v err=%v", ok, err)
	}
	snap, err := decodeServiceSnapshot(data)
	if err != nil {
		t.Fatal(err)
	}
	if snap.ID != info.ID || len(snap.Snapshot.Transcript) != 1 {
		t.Fatalf("persisted record: id %q, %d answers; want %q, 1", snap.ID, len(snap.Snapshot.Transcript), info.ID)
	}

	// A fresh manager over the same store restores the session, answers
	// intact.
	m2, err := NewManager(testRegistry(t), Options{Store: kv, Now: clock})
	if err != nil {
		t.Fatal(err)
	}
	got, err := m2.Get(info.ID)
	if err != nil {
		t.Fatal(err)
	}
	if got.Asked != 1 {
		t.Errorf("restored session has %d answers, want 1", got.Asked)
	}
}

// TestPersistRestoreDeterminism is the acceptance differential through the
// service layer: a session driven halfway over an on-disk log store,
// persisted via Close, restored by a new manager over the reopened store
// and driven on asks bit-identical remaining questions and
// infers the same predicate as an uninterrupted manager-driven session.
func TestPersistRestoreDeterminism(t *testing.T) {
	goal := flightGoal(t)
	u := joininference.NewSession(paperdata.FlightHotel()).Universe()
	for _, strat := range []joininference.StrategyID{joininference.StrategyL2S, joininference.StrategyRND} {
		t.Run(string(strat), func(t *testing.T) {
			params := Params{Instance: "flights", Strategy: strat, Seed: 11}

			mFull, err := NewManager(testRegistry(t), Options{})
			if err != nil {
				t.Fatal(err)
			}
			full, err := mFull.Create(params)
			if err != nil {
				t.Fatal(err)
			}
			fullRefs := driveToDone(t, mFull, full.ID, goal, 1)
			if len(fullRefs) < 2 {
				t.Fatalf("want ≥ 2 questions, got %d", len(fullRefs))
			}
			fullPred, err := mFull.Predicate(full.ID)
			if err != nil {
				t.Fatal(err)
			}

			dir := t.TempDir()
			ctx := context.Background()
			oracle := joininference.HonestOracle(goal)
			kvA, err := store.OpenLog(dir, store.LogOptions{})
			if err != nil {
				t.Fatal(err)
			}
			mA, err := NewManager(testRegistry(t), Options{Store: kvA})
			if err != nil {
				t.Fatal(err)
			}
			interrupted, err := mA.Create(params)
			if err != nil {
				t.Fatal(err)
			}
			half := len(fullRefs) / 2
			var prefix []joininference.QuestionRef
			for len(prefix) < half {
				qs, err := mA.Questions(ctx, interrupted.ID, 1)
				if err != nil || len(qs) == 0 {
					t.Fatalf("questions: %v, %d", err, len(qs))
				}
				l, _ := oracle.Label(ctx, qs[0])
				if _, err := mA.Answer(ctx, interrupted.ID, []Answer{{QuestionRef: qs[0].Ref(), Positive: bool(l)}}); err != nil {
					t.Fatal(err)
				}
				prefix = append(prefix, qs[0].Ref())
			}
			if err := mA.Close(ctx); err != nil {
				t.Fatal(err)
			}
			if err := kvA.Close(); err != nil {
				t.Fatal(err)
			}

			kvB, err := store.OpenLog(dir, store.LogOptions{})
			if err != nil {
				t.Fatal(err)
			}
			defer kvB.Close()
			mB, err := NewManager(testRegistry(t), Options{Store: kvB})
			if err != nil {
				t.Fatal(err)
			}
			rest := driveToDone(t, mB, interrupted.ID, goal, 1)
			got := append(append([]joininference.QuestionRef(nil), prefix...), rest...)
			if len(got) != len(fullRefs) {
				t.Fatalf("restored run asked %d questions, uninterrupted %d", len(got), len(fullRefs))
			}
			for i := range got {
				if got[i] != fullRefs[i] {
					t.Fatalf("question %d diverged: %v vs %v", i, got[i], fullRefs[i])
				}
			}
			restoredPred, err := mB.Predicate(interrupted.ID)
			if err != nil {
				t.Fatal(err)
			}
			if restoredPred.Predicate != fullPred.Predicate {
				t.Errorf("restored predicate %q ≠ uninterrupted %q", restoredPred.Predicate, fullPred.Predicate)
			}
			if restoredPred.Predicate != goal.Format(u) {
				t.Errorf("restored predicate %q ≠ goal %q", restoredPred.Predicate, goal.Format(u))
			}
		})
	}
}

func TestManagerClosedRefusesWork(t *testing.T) {
	m, err := NewManager(testRegistry(t), Options{})
	if err != nil {
		t.Fatal(err)
	}
	info, err := m.Create(Params{Instance: "flights"})
	if err != nil {
		t.Fatal(err)
	}
	if err := m.Close(context.Background()); err != nil {
		t.Fatal(err)
	}
	if _, err := m.Get(info.ID); !errors.Is(err, ErrClosed) {
		t.Errorf("want ErrClosed, got %v", err)
	}
	if _, err := m.Create(Params{Instance: "flights"}); !errors.Is(err, ErrClosed) {
		t.Errorf("want ErrClosed on create, got %v", err)
	}
	if err := m.Close(context.Background()); !errors.Is(err, ErrClosed) {
		t.Errorf("second close: want ErrClosed, got %v", err)
	}
}

func TestRegistryLazyAndConcurrent(t *testing.T) {
	loads := 0
	reg := NewRegistry()
	if err := reg.Register("lazy", func() (*joininference.Instance, error) {
		loads++
		return paperdata.FlightHotel(), nil
	}); err != nil {
		t.Fatal(err)
	}
	if loads != 0 {
		t.Fatal("source ran at registration time")
	}
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if _, err := reg.Get("lazy"); err != nil {
				t.Error(err)
			}
		}()
	}
	wg.Wait()
	if loads != 1 {
		t.Errorf("source ran %d times, want 1", loads)
	}
	if err := reg.Register("lazy", nil); err == nil {
		t.Error("duplicate registration accepted")
	}
	if _, err := reg.Get("missing"); !errors.Is(err, ErrUnknownInstance) {
		t.Errorf("want ErrUnknownInstance, got %v", err)
	}
}
