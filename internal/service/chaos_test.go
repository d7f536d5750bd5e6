package service

import (
	"context"
	"fmt"
	"net/http"
	"net/http/httptest"
	"sync"
	"testing"
	"time"

	joininference "repro"
	"repro/internal/paperdata"
	"repro/internal/resilience"
	"repro/internal/store"
)

// readyStatus fetches GET /readyz and returns its HTTP status.
func readyStatus(t *testing.T, client *http.Client, base string) int {
	t.Helper()
	resp, err := client.Get(base + "/readyz")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	return resp.StatusCode
}

// waitReady polls /readyz until it reports want (200 or 503) or the
// deadline passes.
func waitReady(t *testing.T, client *http.Client, base string, want int, timeout time.Duration) {
	t.Helper()
	deadline := time.Now().Add(timeout)
	for {
		if got := readyStatus(t, client, base); got == want {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("/readyz did not reach %d within %v", want, timeout)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// questionRound plays one question/answer round for a session over HTTP:
// fetch up to k questions, answer them honestly, and return the refs
// asked (nil when the session is done). Every request must succeed — the
// resilience machinery absorbs store faults; they never surface to
// clients as errors.
func questionRound(t *testing.T, client *http.Client, base, id string, inst *joininference.Instance, goal joininference.Pred, k int) []joininference.QuestionRef {
	t.Helper()
	var qr wireQuestions
	doJSON(t, client, http.MethodGet, fmt.Sprintf("%s/sessions/%s/questions?k=%d", base, id, k), nil, http.StatusOK, &qr)
	if qr.Done {
		return nil
	}
	answers := honestAnswers(inst, goal, qr.Questions)
	var res AnswerResult
	doJSON(t, client, http.MethodPost, fmt.Sprintf("%s/sessions/%s/answers", base, id), answersRequest{Answers: answers}, http.StatusOK, &res)
	refs := make([]joininference.QuestionRef, len(answers))
	for i, a := range answers {
		refs[i] = a.QuestionRef
	}
	return refs
}

// TestChaosSoak is the resilience soak (run it under -race): N concurrent
// sessions served over HTTP while the store misbehaves — transient
// errors, latency spikes, torn writes, then a full outage and recovery.
// The invariants:
//
//   - no request ever fails: store faults degrade persistence, never
//     serving (and the middleware records zero recovered panics);
//   - question sequences are bit-identical to a fault-free run — faults
//     touch durability only, not inference;
//   - the outage trips the breaker and /readyz turns 503 (degraded);
//     clearing it recovers the breaker and /readyz, visibly in metrics;
//   - after a clean shutdown every session restores from the store, done,
//     with its full transcript.
func TestChaosSoak(t *testing.T) {
	n, faultRounds := 16, 2
	if testing.Short() {
		n, faultRounds = 6, 1
	}
	const k = 2

	inner := store.NewMem()
	fault := store.NewFault(inner, store.FaultConfig{
		Seed:          42,
		ErrorRate:     0.10,
		LatencyRate:   0.05,
		Latency:       200 * time.Microsecond,
		TornWriteRate: 0.05,
	})
	fault.SetEnabled(false) // phase 0 and boot restore run clean
	kv := store.NewRetry(fault, store.RetryOptions{
		Attempts: 2,
		Base:     100 * time.Microsecond,
		Max:      time.Millisecond,
	})
	breaker := resilience.NewBreaker(resilience.BreakerOptions{Threshold: 3, Cooloff: 50 * time.Millisecond})
	pc := joininference.NewPolicyCache(8 << 20)
	pc.AttachStore(kv, 0, joininference.WithTierBreaker(breaker))
	bundle := NewObs()
	m, err := NewManager(testRegistry(t), Options{
		Store:          kv,
		StoreBreaker:   breaker,
		PolicyCache:    pc,
		MaxConcurrent:  8,
		MaxQueue:       64,
		RequestTimeout: time.Minute,
		Obs:            bundle,
	})
	if err != nil {
		t.Fatal(err)
	}
	srv := httptest.NewServer(NewHandler(m))
	defer srv.Close()
	client := srv.Client()
	inst := paperdata.FlightHotel()
	goal := flightGoal(t)

	strategies := []joininference.StrategyID{
		joininference.StrategyBU, joininference.StrategyTD,
		joininference.StrategyL1S, joininference.StrategyL2S,
		joininference.StrategyRND,
	}
	params := make([]Params, n)
	ids := make([]string, n)
	refs := make([][]joininference.QuestionRef, n)
	for i := range params {
		params[i] = Params{Instance: "flights", Strategy: strategies[i%len(strategies)], Seed: int64(i + 1)}
		var info Info
		doJSON(t, client, http.MethodPost, srv.URL+"/sessions", createRequest{Params: params[i]}, http.StatusCreated, &info)
		ids[i] = info.ID
	}

	// concurrentRound plays one round for every session in parallel.
	concurrentRound := func() {
		var wg sync.WaitGroup
		for i := range ids {
			wg.Add(1)
			go func(i int) {
				defer wg.Done()
				refs[i] = append(refs[i], questionRound(t, client, srv.URL, ids[i], inst, goal, k)...)
			}(i)
		}
		wg.Wait()
	}

	// Phase 0: one clean round, store healthy.
	concurrentRound()
	if got := readyStatus(t, client, srv.URL); got != http.StatusOK {
		t.Fatalf("/readyz = %d while healthy, want 200", got)
	}

	// Phase 1: faults on (errors, latency spikes, torn writes) — serving
	// must not notice.
	fault.SetEnabled(true)
	for r := 0; r < faultRounds; r++ {
		concurrentRound()
	}

	// Phase 2: full outage. Answers still succeed (RAM is the source of
	// truth), persists queue behind the tripped breaker, /readyz degrades.
	fault.SetConfig(store.FaultConfig{Seed: 43, ErrorRate: 1})
	concurrentRound()
	waitReady(t, client, srv.URL, http.StatusServiceUnavailable, 5*time.Second)

	// Phase 3: outage over — the write-behind worker's retries are the
	// half-open probes; the breaker closes, the queue drains, /readyz
	// recovers, and the trip/recovery are visible in /readyz and /metrics.
	fault.SetEnabled(false)
	waitReady(t, client, srv.URL, http.StatusOK, 10*time.Second)
	if h := m.Health(); h.Store == nil || h.Store.Trips < 1 || h.Store.Recoveries < 1 {
		t.Fatalf("breaker trip/recovery not visible in health: %+v", h.Store)
	}
	if got := samples(t, exposition(t, bundle.Metrics)); got["store_breaker_trips_total"] < 1 || got["store_breaker_recoveries_total"] < 1 {
		t.Fatalf("breaker trip/recovery not visible in metrics: trips %v, recoveries %v",
			got["store_breaker_trips_total"], got["store_breaker_recoveries_total"])
	}

	// Phase 4: original fault profile back on; drive every session to
	// completion.
	fault.SetConfig(store.FaultConfig{
		Seed:          42,
		ErrorRate:     0.10,
		LatencyRate:   0.05,
		Latency:       200 * time.Microsecond,
		TornWriteRate: 0.05,
	})
	fault.SetEnabled(true)
	var wg sync.WaitGroup
	for i := range ids {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			for {
				round := questionRound(t, client, srv.URL, ids[i], inst, goal, k)
				if round == nil {
					return
				}
				refs[i] = append(refs[i], round...)
			}
		}(i)
	}
	wg.Wait()

	// Faults never surfaced: every request above demanded 200/201, and the
	// middleware recovered no panics.
	if p := bundle.HTTP.Panics.Value(); p != 0 {
		t.Errorf("middleware recovered %d panics, want 0", p)
	}

	// Bit-identical question sequences: replay every session on a clean
	// manager (no store, no faults) with the same params and batching.
	ref, err := NewManager(testRegistry(t), Options{})
	if err != nil {
		t.Fatal(err)
	}
	for i := range params {
		info, err := ref.Create(params[i])
		if err != nil {
			t.Fatal(err)
		}
		want := driveToDone(t, ref, info.ID, goal, k)
		if len(refs[i]) != len(want) {
			t.Fatalf("session %d (%s): %d questions under faults, %d clean", i, params[i].Strategy, len(refs[i]), len(want))
		}
		for j := range want {
			if refs[i][j] != want[j] {
				t.Fatalf("session %d (%s): question %d = %v under faults, %v clean", i, params[i].Strategy, j, refs[i][j], want[j])
			}
		}
	}

	// Clean shutdown (faults off, as joinserve does) must drain the
	// write-behind queue; a fresh manager over the same store then
	// restores every session, done, with its full transcript.
	fault.SetEnabled(false)
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := m.Close(ctx); err != nil {
		t.Fatalf("shutdown drain failed: %v", err)
	}
	m2, err := NewManager(testRegistry(t), Options{Store: kv})
	if err != nil {
		t.Fatal(err)
	}
	defer m2.Close(context.Background())
	for i, id := range ids {
		info, err := m2.Get(id)
		if err != nil {
			t.Fatalf("session %d lost across restart: %v", i, err)
		}
		if !info.Done || info.Asked != len(refs[i]) {
			t.Errorf("session %d restored done=%v asked=%d, want done=true asked=%d", i, info.Done, info.Asked, len(refs[i]))
		}
	}
}

// TestBreakerGateRetryHealthyPath: on a healthy store the resilience
// machinery stays out of the way. A whole L2S session over HTTP — create,
// questions to the halt, predicate, delete — succeeds with the store and a
// store-backed policy cache alone, with admission gates and a shared
// breaker added, and with the store retry wrapper and a request deadline
// on top.
func TestBreakerGateRetryHealthyPath(t *testing.T) {
	inst := paperdata.FlightHotel()
	goal := flightGoal(t)
	want := goal.Format(joininference.NewSession(inst).Universe())
	for _, tc := range []struct {
		name         string
		gates, retry bool
	}{{"store", false, false}, {"gate+breaker", true, false}, {"full", true, true}} {
		t.Run(tc.name, func(t *testing.T) {
			var kv store.KV = store.NewMem()
			if tc.retry {
				kv = store.NewRetry(kv, store.RetryOptions{Attempts: 3})
			}
			pc := joininference.NewPolicyCache(8 << 20)
			opts := Options{Store: kv, PolicyCache: pc}
			if tc.gates {
				breaker := resilience.NewBreaker(resilience.BreakerOptions{})
				pc.AttachStore(kv, 0, joininference.WithTierBreaker(breaker))
				opts.StoreBreaker, opts.MaxConcurrent, opts.MaxQueue = breaker, 64, 64
			} else {
				pc.AttachStore(kv, 0)
			}
			if tc.retry {
				opts.RequestTimeout = time.Minute
			}
			m, err := NewManager(testRegistry(t), opts)
			if err != nil {
				t.Fatal(err)
			}
			defer m.Close(context.Background())
			srv := httptest.NewServer(NewHandler(m))
			defer srv.Close()
			client := srv.Client()

			var info Info
			doJSON(t, client, http.MethodPost, srv.URL+"/sessions",
				Params{Instance: "flights", Strategy: joininference.StrategyL2S}, http.StatusCreated, &info)
			driveHTTP(t, client, srv.URL, info.ID, inst, goal, 2)
			var p PredicateInfo
			doJSON(t, client, http.MethodGet, srv.URL+"/sessions/"+info.ID+"/predicate", nil, http.StatusOK, &p)
			if !p.Done || p.Predicate != want {
				t.Errorf("done=%v, inferred %q, want %q", p.Done, p.Predicate, want)
			}
			doJSON(t, client, http.MethodDelete, srv.URL+"/sessions/"+info.ID, nil, http.StatusNoContent, nil)
		})
	}
}

// TestAdmissionControl429: a saturated route sheds with 429 + Retry-After
// instead of queueing without bound.
func TestAdmissionControl429(t *testing.T) {
	m, err := NewManager(testRegistry(t), Options{MaxConcurrent: 1, MaxQueue: 0})
	if err != nil {
		t.Fatal(err)
	}
	srv := httptest.NewServer(NewHandler(m))
	defer srv.Close()
	client := srv.Client()

	info, err := m.Create(Params{Instance: "flights"})
	if err != nil {
		t.Fatal(err)
	}

	// Hold the route's only slot, then hit it over HTTP.
	release, err := m.gateFor(routeQuestions).Acquire(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	resp, err := client.Get(srv.URL + "/sessions/" + info.ID + "/questions")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("saturated route = %d, want 429", resp.StatusCode)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Error("429 without Retry-After")
	}
	if shed := m.gateFor(routeQuestions).Shed(); shed != 1 {
		t.Errorf("shed counter = %d, want 1", shed)
	}

	// Releasing the slot restores service; other routes were never gated
	// by this one.
	release()
	var qr wireQuestions
	doJSON(t, client, http.MethodGet, srv.URL+"/sessions/"+info.ID+"/questions", nil, http.StatusOK, &qr)
	if len(qr.Questions) == 0 {
		t.Error("no questions after release")
	}
}

// TestRequestTimeout503: an expired server-side deadline answers 503 +
// Retry-After, not a hung request.
func TestRequestTimeout503(t *testing.T) {
	m, err := NewManager(testRegistry(t), Options{RequestTimeout: time.Nanosecond})
	if err != nil {
		t.Fatal(err)
	}
	srv := httptest.NewServer(NewHandler(m))
	defer srv.Close()
	client := srv.Client()

	info, err := m.Create(Params{Instance: "flights"})
	if err != nil {
		t.Fatal(err)
	}
	resp, err := client.Get(srv.URL + "/sessions/" + info.ID + "/questions")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("expired deadline = %d, want 503", resp.StatusCode)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Error("503 without Retry-After")
	}
}

// TestHalfOpenProbeBusyDoesNotWedge: while the breaker is half-open, the
// persist worker's probe can land on a session that is mid-operation
// (TryLock fails → persistBusy). That probe never reaches the store, so
// it must be released — the regression was probing=true leaking, wedging
// the breaker half-open permanently: persists queued forever and /readyz
// stayed 503 until restart. persistBusy is likely during an outage since
// sessions are actively locked while answering.
func TestHalfOpenProbeBusyDoesNotWedge(t *testing.T) {
	inner := store.NewMem()
	fault := store.NewFault(inner, store.FaultConfig{Seed: 11, ErrorRate: 1})
	fault.SetEnabled(false)
	breaker := resilience.NewBreaker(resilience.BreakerOptions{Threshold: 1, Cooloff: 5 * time.Millisecond})
	m, err := NewManager(testRegistry(t), Options{Store: fault, StoreBreaker: breaker})
	if err != nil {
		t.Fatal(err)
	}

	// A dead store trips the threshold-1 breaker on the create write-through
	// and queues the session for write-behind retry.
	fault.SetEnabled(true)
	info, err := m.Create(Params{Instance: "flights"})
	if err != nil {
		t.Fatalf("create must survive a dead store: %v", err)
	}

	// Hold the session's lock across several cooloffs: every half-open
	// probe the worker takes hits persistBusy while the store stays dead,
	// then heals mid-hold.
	m.mu.Lock()
	ms := m.sessions[info.ID]
	m.mu.Unlock()
	ms.mu.Lock()
	time.Sleep(50 * time.Millisecond)
	fault.SetEnabled(false)
	ms.mu.Unlock()

	// With the session unlocked and the store healed, the next probe must
	// close the breaker and drain the queue.
	deadline := time.Now().Add(5 * time.Second)
	for breaker.State() != resilience.BreakerClosed || m.pq.depth() > 0 {
		if time.Now().After(deadline) {
			t.Fatalf("breaker wedged: state=%v queue_depth=%d", breaker.State(), m.pq.depth())
		}
		time.Sleep(time.Millisecond)
	}
	if err := m.Close(context.Background()); err != nil {
		t.Fatalf("close: %v", err)
	}
}

// TestReadyzTransitions walks /readyz through healthy → degraded →
// recovered as the store fails and heals.
func TestReadyzTransitions(t *testing.T) {
	inner := store.NewMem()
	fault := store.NewFault(inner, store.FaultConfig{Seed: 7, ErrorRate: 1})
	fault.SetEnabled(false)
	breaker := resilience.NewBreaker(resilience.BreakerOptions{Threshold: 1, Cooloff: 20 * time.Millisecond})
	m, err := NewManager(testRegistry(t), Options{Store: fault, StoreBreaker: breaker})
	if err != nil {
		t.Fatal(err)
	}
	srv := httptest.NewServer(NewHandler(m))
	defer srv.Close()
	client := srv.Client()

	if got := readyStatus(t, client, srv.URL); got != http.StatusOK {
		t.Fatalf("healthy /readyz = %d, want 200", got)
	}

	// Break the store; the next persist (session create writes through)
	// trips the threshold-1 breaker and degrades readiness.
	fault.SetEnabled(true)
	if _, err := m.Create(Params{Instance: "flights"}); err != nil {
		t.Fatalf("create must survive a dead store: %v", err)
	}
	waitReady(t, client, srv.URL, http.StatusServiceUnavailable, 5*time.Second)

	// Heal it; the write-behind worker's probe closes the breaker and
	// drains the queue.
	fault.SetEnabled(false)
	waitReady(t, client, srv.URL, http.StatusOK, 10*time.Second)
}
