package service

import (
	"context"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	joininference "repro"
	"repro/internal/paperdata"
)

const minute = time.Minute

// TestManagerSharedPolicyCache: sessions created through one manager share
// the policy cache per instance — the first pays for the strategy, later
// ones (and resumed ones) hit, and all ask bit-identical sequences.
func TestManagerSharedPolicyCache(t *testing.T) {
	goal := flightGoal(t)
	params := Params{Instance: "flights", Strategy: joininference.StrategyL2S}

	// Reference sequence from a cache-less manager.
	plain, err := NewManager(testRegistry(t), Options{})
	if err != nil {
		t.Fatal(err)
	}
	info, err := plain.Create(params)
	if err != nil {
		t.Fatal(err)
	}
	want := driveToDone(t, plain, info.ID, goal, 2)

	cache := joininference.NewPolicyCache(0)
	m, err := NewManager(testRegistry(t), Options{PolicyCache: cache})
	if err != nil {
		t.Fatal(err)
	}
	first, err := m.Create(params)
	if err != nil {
		t.Fatal(err)
	}
	got := driveToDone(t, m, first.ID, goal, 2)
	if len(got) != len(want) {
		t.Fatalf("cold cached session asked %d questions, want %d", len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("cold cached question %d = %+v, want %+v", i, got[i], want[i])
		}
	}

	before := cache.Stats()
	second, err := m.Create(params)
	if err != nil {
		t.Fatal(err)
	}
	got = driveToDone(t, m, second.ID, goal, 2)
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("warm cached question %d = %+v, want %+v", i, got[i], want[i])
		}
	}
	after := cache.Stats()
	if after.Hits == before.Hits {
		t.Error("second session over the same instance never hit the shared cache")
	}
	if after.Misses != before.Misses {
		t.Errorf("second session missed %d times on an unbounded warm cache", after.Misses-before.Misses)
	}
}

// TestManagerPolicyCacheConcurrent drives managed sessions of every
// built-in strategy in parallel, with and without a shared policy cache
// (run with -race): every session converges to the goal and deletes
// cleanly, and the cache sees publishes.
func TestManagerPolicyCacheConcurrent(t *testing.T) {
	goal := flightGoal(t)
	want := goal.Format(joininference.NewSession(paperdata.FlightHotel()).Universe())
	for _, cache := range []*joininference.PolicyCache{nil, joininference.NewPolicyCache(0)} {
		m, err := NewManager(testRegistry(t), Options{PolicyCache: cache})
		if err != nil {
			t.Fatal(err)
		}
		ids := make([]string, 8)
		var wg sync.WaitGroup
		for w := range ids {
			wg.Add(1)
			go func(w int) {
				defer wg.Done()
				id := joininference.KnownStrategies()[w%len(joininference.KnownStrategies())]
				info, err := m.Create(Params{Instance: "flights", Strategy: id, Seed: 3})
				if err != nil {
					t.Error(err)
					return
				}
				ids[w] = info.ID
				driveToDone(t, m, info.ID, goal, 2)
			}(w)
		}
		wg.Wait()
		for _, id := range ids {
			if id == "" {
				continue // Create failed and was reported
			}
			p, err := m.Predicate(id)
			if err != nil {
				t.Fatal(err)
			}
			if !p.Done || p.Predicate != want {
				t.Errorf("session %s: done=%v, inferred %q, want %q", id, p.Done, p.Predicate, want)
			}
			if err := m.Delete(id); err != nil {
				t.Error(err)
			}
		}
		if cache != nil && cache.Stats().Publishes == 0 {
			t.Error("no nodes published by concurrent sessions")
		}
	}
}

// TestManagerPolicyCacheWarm precomputes through the manager and checks a fresh
// session starts on pure hits.
func TestManagerPolicyCacheWarm(t *testing.T) {
	goal := flightGoal(t)
	cache := joininference.NewPolicyCache(0)
	m, err := NewManager(testRegistry(t), Options{PolicyCache: cache})
	if err != nil {
		t.Fatal(err)
	}
	const depth = 2
	n, err := m.WarmPolicy(context.Background(), Params{Instance: "flights", Strategy: joininference.StrategyL2S}, depth)
	if err != nil {
		t.Fatal(err)
	}
	if n < depth {
		t.Fatalf("warmed %d nodes, want ≥ %d", n, depth)
	}
	before := cache.Stats()
	info, err := m.Create(Params{Instance: "flights", Strategy: joininference.StrategyL2S})
	if err != nil {
		t.Fatal(err)
	}
	driveToDone(t, m, info.ID, goal, 1)
	if hits := cache.Stats().Hits - before.Hits; hits < depth {
		t.Errorf("post-warm session hit %d times, want ≥ %d", hits, depth)
	}

	// Warm requests that cannot be served fail loudly.
	if _, err := m.WarmPolicy(context.Background(), Params{Instance: "flights", Semijoin: true}, 2); err == nil {
		t.Error("semijoin warm accepted")
	}
	if _, err := m.WarmPolicy(context.Background(), Params{Instance: "nope"}, 2); err == nil {
		t.Error("unknown instance warm accepted")
	}
	plain, err := NewManager(testRegistry(t), Options{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := plain.WarmPolicy(context.Background(), Params{Instance: "flights"}, 2); err == nil {
		t.Error("warm without a cache accepted")
	}
}

// TestMetricsEndpoint drives the HTTP handler and checks the counters
// GET /metrics reports.
func TestMetricsEndpoint(t *testing.T) {
	goal := flightGoal(t)
	cache := joininference.NewPolicyCache(0)
	m, err := NewManager(testRegistry(t), Options{PolicyCache: cache})
	if err != nil {
		t.Fatal(err)
	}
	srv := httptest.NewServer(NewHandler(m))
	defer srv.Close()

	for i := 0; i < 2; i++ {
		info, err := m.Create(Params{Instance: "flights", Strategy: joininference.StrategyTD})
		if err != nil {
			t.Fatal(err)
		}
		driveToDone(t, m, info.ID, goal, 1)
	}
	got := samples(t, getMetrics(t, srv.Client(), srv.URL))
	if got["sessions_live"] != 2 || got["sessions_created_total"] != 2 {
		t.Errorf("sessions live=%v created=%v, want 2/2", got["sessions_live"], got["sessions_created_total"])
	}
	if got["questions_served_total"] == 0 || got["answers_applied_total"] == 0 {
		t.Errorf("questions=%v answers=%v, want > 0", got["questions_served_total"], got["answers_applied_total"])
	}
	if got["policy_cache_publishes_total"] == 0 {
		t.Error("policy cache saw no publishes")
	}
	if got["policy_cache_hits_total"] == 0 {
		t.Error("second TD session should have hit the shared cache")
	}
}

// TestMetricsOmitsCacheWhenDisabled: without a configured cache /metrics
// must not claim one.
func TestMetricsOmitsCacheWhenDisabled(t *testing.T) {
	m, err := NewManager(testRegistry(t), Options{})
	if err != nil {
		t.Fatal(err)
	}
	if text := exposition(t, m.opts.Obs.Metrics); strings.Contains(text, "policy_cache_") {
		t.Errorf("policy cache families served without a cache:\n%s", text)
	}
}

// TestPolicyCacheHTTPHugeK: a questions fetch with a k far beyond the
// instance's class count, served from a shared policy-cache node, answers
// 200 with the same question a k=1 fetch gets.
func TestPolicyCacheHTTPHugeK(t *testing.T) {
	m, err := NewManager(testRegistry(t), Options{PolicyCache: joininference.NewPolicyCache(0)})
	if err != nil {
		t.Fatal(err)
	}
	srv := httptest.NewServer(NewHandler(m))
	defer srv.Close()
	client := srv.Client()
	fetch := func(k string) wireQuestions {
		var info Info
		doJSON(t, client, http.MethodPost, srv.URL+"/sessions",
			Params{Instance: "flights", Strategy: joininference.StrategyTD}, http.StatusCreated, &info)
		var qr wireQuestions
		doJSON(t, client, http.MethodGet, srv.URL+"/sessions/"+info.ID+"/questions?k="+k, nil, http.StatusOK, &qr)
		return qr
	}
	first := fetch("1")
	huge := fetch("4611686018427387904")
	if len(first.Questions) != 1 || len(huge.Questions) == 0 ||
		huge.Questions[0].R != first.Questions[0].R || huge.Questions[0].P != first.Questions[0].P {
		t.Fatalf("k=1 fetch %+v, k=2^62 fetch %+v", first, huge)
	}
}

// TestJanitorIntervalResolution: the sweep interval is a quarter of the
// TTL, capped at one minute and floored at one millisecond.
func TestJanitorIntervalResolution(t *testing.T) {
	cases := []struct {
		opts Options
		want string
	}{
		{Options{TTL: 40 * minute}, "1m0s"}, // capped
		{Options{TTL: 2 * minute}, "30s"},   // ttl/4
		{Options{TTL: 3}, "1ms"},            // floored: ttl/4 is 0
	}
	for _, tc := range cases {
		if got := tc.opts.JanitorInterval().String(); got != tc.want {
			t.Errorf("JanitorInterval(%+v) = %s, want %s", tc.opts, got, tc.want)
		}
	}
}
