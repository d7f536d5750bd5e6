package service

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"testing"

	joininference "repro"
	"repro/internal/obs"
	"repro/internal/paperdata"
	"repro/internal/store"
)

// obsServer builds an httptest server with the full telemetry stack: a
// bundle, a JSON logger into a buffer, and a store (so the store latency
// segment fires too).
func obsServer(t *testing.T) (*httptest.Server, *Obs, *bytes.Buffer) {
	t.Helper()
	bundle := NewObs()
	logBuf := &bytes.Buffer{}
	m, err := NewManager(testRegistry(t), Options{
		Store:  store.NewMem(),
		Logger: obs.NewLogger(logBuf, "json", 0),
		Obs:    bundle,
	})
	if err != nil {
		t.Fatal(err)
	}
	srv := httptest.NewServer(NewHandler(m))
	t.Cleanup(srv.Close)
	return srv, bundle, logBuf
}

// exposition renders a registry as Prometheus text.
func exposition(t *testing.T, r *obs.Registry) string {
	t.Helper()
	var buf strings.Builder
	if err := r.WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.String()
}

// getMetrics fetches GET /metrics and returns its body.
func getMetrics(t *testing.T, client *http.Client, base string) string {
	t.Helper()
	resp, err := client.Get(base + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET /metrics: status %d", resp.StatusCode)
	}
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return string(body)
}

// samples parses a Prometheus text exposition into a map from series (the
// family name plus its label set, as printed) to value.
func samples(t *testing.T, text string) map[string]float64 {
	t.Helper()
	out := make(map[string]float64)
	for _, line := range strings.Split(text, "\n") {
		if line == "" || line[0] == '#' {
			continue
		}
		i := strings.LastIndexByte(line, ' ')
		v, err := strconv.ParseFloat(line[i+1:], 64)
		if err != nil {
			t.Fatalf("sample line %q: %v", line, err)
		}
		out[line[:i]] = v
	}
	return out
}

// TestObsEndToEnd drives a session over HTTP with telemetry attached and
// checks the whole pipeline: request ids correlate the response header,
// the access log and the trace spans; /metrics parses as Prometheus text
// exposition with the serving histograms populated; /debug/metrics is
// gone.
func TestObsEndToEnd(t *testing.T) {
	srv, bundle, logBuf := obsServer(t)
	client := srv.Client()
	inst := paperdata.FlightHotel()
	goal := flightGoal(t)

	var info Info
	doJSON(t, client, http.MethodPost, srv.URL+"/sessions",
		Params{Instance: "flights", Strategy: joininference.StrategyL2S}, http.StatusCreated, &info)

	// One questions fetch with a client-supplied request id, to pin the
	// correlation end to end.
	req, err := http.NewRequest(http.MethodGet, fmt.Sprintf("%s/sessions/%s/questions?k=2", srv.URL, info.ID), nil)
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set(obs.RequestIDHeader, "e2e-test-request")
	resp, err := client.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	var qr wireQuestions
	if err := json.NewDecoder(resp.Body).Decode(&qr); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if got := resp.Header.Get(obs.RequestIDHeader); got != "e2e-test-request" {
		t.Fatalf("response request id = %q", got)
	}
	if len(qr.Questions) == 0 {
		t.Fatal("no questions")
	}

	// Drive to convergence so every segment (strategy, store) observes.
	var res AnswerResult
	doJSON(t, client, http.MethodPost, fmt.Sprintf("%s/sessions/%s/answers", srv.URL, info.ID),
		answersRequest{Answers: honestAnswers(inst, goal, qr.Questions)}, http.StatusOK, &res)
	driveHTTP(t, client, srv.URL, info.ID, inst, goal, 2)

	// The access log carries the pinned request id on exactly the one
	// request that sent it.
	reqLines := 0
	for _, line := range strings.Split(strings.TrimSpace(logBuf.String()), "\n") {
		var rec map[string]any
		if err := json.Unmarshal([]byte(line), &rec); err != nil {
			t.Fatalf("log line not JSON: %q", line)
		}
		if rec["request_id"] == "e2e-test-request" {
			reqLines++
			if rec["route"] != "GET /sessions/{id}/questions" {
				t.Errorf("pinned request logged route %v", rec["route"])
			}
		}
	}
	if reqLines != 1 {
		t.Errorf("pinned request id appeared in %d access-log lines, want 1", reqLines)
	}

	// All spans of the pinned request share its trace id, and the handler
	// span nests under the http root span.
	var httpSpan, sessSpan *obs.Span
	for _, s := range bundle.Tracer.Recent("", 0) {
		if s.Trace != "e2e-test-request" {
			continue
		}
		s := s
		switch {
		case strings.HasPrefix(s.Name, "http "):
			httpSpan = &s
		case s.Name == "session.questions":
			sessSpan = &s
		}
	}
	if httpSpan == nil || sessSpan == nil {
		t.Fatalf("pinned trace incomplete: http=%v session=%v", httpSpan, sessSpan)
	}
	if sessSpan.Parent != httpSpan.ID {
		t.Errorf("session span parent = %d, want http span id %d", sessSpan.Parent, httpSpan.ID)
	}
	if sessSpan.Session != info.ID {
		t.Errorf("session span session = %q, want %q", sessSpan.Session, info.ID)
	}

	// GET /debug/trace serves the same spans, filterable by session.
	var tr traceResponse
	doJSON(t, client, http.MethodGet, srv.URL+"/debug/trace?session="+info.ID, nil, http.StatusOK, &tr)
	if len(tr.Spans) == 0 || tr.Total == 0 {
		t.Fatalf("debug trace empty: %+v", tr)
	}
	for _, s := range tr.Spans {
		if s.Session != info.ID {
			t.Errorf("trace filter leaked span %+v", s)
		}
	}

	// GET /metrics: correct content type, and the serving histograms fired.
	mresp, err := client.Get(srv.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(mresp.Body)
	mresp.Body.Close()
	if ct := mresp.Header.Get("Content-Type"); ct != obs.PromContentType {
		t.Errorf("content type = %q", ct)
	}
	out := string(body)
	for _, want := range []string{
		"# TYPE question_segment_seconds histogram",
		`question_segment_seconds_count{segment="strategy"}`,
		`question_segment_seconds_count{segment="store"}`,
		"# TYPE http_requests_total counter",
		`http_requests_total{route="GET /sessions/{id}/questions"}`,
		"# TYPE sessions_created_total counter",
		"sessions_created_total 1",
		"# TYPE questions_served_total counter",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("/metrics missing %q", want)
		}
	}
	if strings.Contains(out, `question_segment_seconds_count{segment="strategy"} 0`) {
		t.Error("strategy segment histogram never observed")
	}
	if strings.Contains(out, `question_segment_seconds_count{segment="store"} 0`) {
		t.Error("store segment histogram never observed")
	}

	if got := samples(t, out)["questions_served_total"]; got == 0 {
		t.Error("questions_served_total = 0 after a converged session")
	}

	// /metrics is the only metrics surface.
	doJSON(t, client, http.MethodGet, srv.URL+"/debug/metrics", nil, http.StatusNotFound, nil)
}

// TestObsDefaultManager: a manager built with Options{} still counts into
// a registry and serves it — GET /metrics and GET /debug/trace are always
// mounted.
func TestObsDefaultManager(t *testing.T) {
	m, err := NewManager(testRegistry(t), Options{})
	if err != nil {
		t.Fatal(err)
	}
	srv := httptest.NewServer(NewHandler(m))
	defer srv.Close()
	client := srv.Client()
	var info Info
	doJSON(t, client, http.MethodPost, srv.URL+"/sessions", Params{Instance: "flights"}, http.StatusCreated, &info)
	driveHTTP(t, client, srv.URL, info.ID, paperdata.FlightHotel(), flightGoal(t), 1)

	got := samples(t, getMetrics(t, client, srv.URL))
	if got["sessions_created_total"] != 1 || got["sessions_live"] != 1 {
		t.Errorf("sessions_created_total = %v, sessions_live = %v, want 1 and 1",
			got["sessions_created_total"], got["sessions_live"])
	}
	met := m.Metrics()
	if got["questions_served_total"] != float64(met.QuestionsServed) || met.QuestionsServed == 0 ||
		got["answers_applied_total"] != float64(met.AnswersApplied) {
		t.Errorf("/metrics %v and Metrics() %+v disagree", got, met)
	}
	if met.Crowd != nil {
		t.Errorf("hard session produced crowd metrics %+v", met.Crowd)
	}
	var tr traceResponse
	doJSON(t, client, http.MethodGet, srv.URL+"/debug/trace?session="+info.ID, nil, http.StatusOK, &tr)
	if len(tr.Spans) == 0 {
		t.Error("/debug/trace served no spans for the session")
	}
	doJSON(t, client, http.MethodGet, srv.URL+"/debug/metrics", nil, http.StatusNotFound, nil)
}

// TestObsPrometheusCoversEveryCounter: every numeric field the JSON
// /debug/metrics document used to carry is a /metrics family (or, for the
// store's last error, a /readyz field). A fully configured manager —
// store, policy cache with a store tier, admission gates — serves the
// families, and the store and policy-cache families read the components'
// own Stats.
func TestObsPrometheusCoversEveryCounter(t *testing.T) {
	kv := store.NewMem()
	pc := joininference.NewPolicyCache(1 << 20)
	pc.AttachStore(kv, 0)
	m, err := NewManager(testRegistry(t), Options{
		Store: kv, PolicyCache: pc, MaxConcurrent: 2, MaxQueue: 2,
	})
	if err != nil {
		t.Fatal(err)
	}
	srv := httptest.NewServer(NewHandler(m))
	defer srv.Close()
	client := srv.Client()
	inst, goal := paperdata.FlightHotel(), flightGoal(t)
	// Two hard sessions (the second hits the policy cache) and a soft one.
	hard := Params{Instance: "flights", Strategy: joininference.StrategyTD}
	for _, p := range []Params{hard, hard, {Instance: "flights", SoftThreshold: 2, ErrorBudget: 1}} {
		var info Info
		doJSON(t, client, http.MethodPost, srv.URL+"/sessions", p, http.StatusCreated, &info)
		if p.SoftThreshold > 0 {
			driveSoft(t, m, info.ID, goal)
		} else {
			driveHTTP(t, client, srv.URL, info.ID, inst, goal, 1)
		}
	}

	// Parent JSON field (section.field) → the family that now carries it.
	families := map[string]string{
		"sessions_live":     "sessions_live",
		"sessions_created":  "sessions_created_total",
		"sessions_resumed":  "sessions_resumed_total",
		"sessions_evicted":  "sessions_evicted_total",
		"sessions_deleted":  "sessions_deleted_total",
		"questions_served":  "questions_served_total",
		"answers_applied":   "answers_applied_total",
		"deltas_ingested":   "deltas_ingested_total",
		"sessions_migrated": "sessions_migrated_total",
		"sessions_retired":  "sessions_retired_total",

		"registry.cache_hits":      "registry_cache_hits_total",
		"registry.reparses":        "registry_reparses_total",
		"registry.deltas_replayed": "registry_deltas_replayed_total",
		"registry.ingests":         "deltas_ingested_total",

		"policy_cache.hits":        "policy_cache_hits_total",
		"policy_cache.misses":      "policy_cache_misses_total",
		"policy_cache.publishes":   "policy_cache_publishes_total",
		"policy_cache.evictions":   "policy_cache_evictions_total",
		"policy_cache.tier2_hits":  "policy_cache_tier2_hits_total",
		"policy_cache.page_ins":    "policy_cache_pageins_total",
		"policy_cache.invalidated": "policy_cache_invalidated_total",
		"policy_cache.nodes":       "policy_cache_nodes",
		"policy_cache.bytes":       "policy_cache_bytes",
		"policy_cache.max_bytes":   "policy_cache_max_bytes",

		"store.gets":            "store_gets_total",
		"store.get_misses":      "store_get_misses_total",
		"store.puts":            "store_puts_total",
		"store.deletes":         "store_deletes_total",
		"store.scans":           "store_scans_total",
		"store.scanned":         "store_scanned_total",
		"store.keys":            "store_keys",
		"store.live_bytes":      "store_live_bytes",
		"store.dead_bytes":      "store_dead_bytes",
		"store.compactions":     "store_compactions_total",
		"store.compacted_bytes": "store_compacted_bytes_total",

		"crowd.votes":             "crowd_votes_total",
		"crowd.commits":           "soft_commits_total",
		"crowd.retractions":       "soft_retractions_total",
		"crowd.workers.votes":     "crowd_worker_votes_total",
		"crowd.workers.agreed":    "crowd_worker_agreed_total",
		"crowd.workers.retracted": "crowd_worker_retracted_total",

		"resilience.breaker_state":        "store_breaker_state",
		"resilience.breaker_trips":        "store_breaker_trips_total",
		"resilience.breaker_recoveries":   "store_breaker_recoveries_total",
		"resilience.persist_queue_depth":  "persist_queue_depth",
		"resilience.persist_retries":      "persist_retries_total",
		"resilience.persist_dropped":      "persist_dropped_total",
		"resilience.restore_failures":     "restore_failures_total",
		"resilience.degraded":             "degraded",
		"resilience.consecutive_failures": "store_breaker_consecutive_failures",
		"resilience.admission.in_flight":  "admission_inflight",
		"resilience.admission.queued":     "admission_queue_depth",
		"resilience.admission.shed":       "admission_shed_total",
		"resilience.admission.admitted":   "admission_admitted_total",
	}
	text := getMetrics(t, client, srv.URL)
	for field, fam := range families {
		if !strings.Contains(text, "\n# TYPE "+fam+" ") {
			t.Errorf("%s: /metrics has no %s family", field, fam)
		}
	}
	// resilience.store_last_error is the store's last_error in /readyz.
	var h Health
	doJSON(t, client, http.MethodGet, srv.URL+"/readyz", nil, http.StatusOK, &h)
	if h.Store == nil {
		t.Fatal("/readyz has no store section")
	}

	got := samples(t, text)
	st, ps := kv.Stats(), pc.Stats()
	for fam, want := range map[string]int64{
		"store_gets_total":             st.Gets,
		"store_get_misses_total":       st.GetMisses,
		"store_puts_total":             st.Puts,
		"store_deletes_total":          st.Deletes,
		"store_scans_total":            st.Scans,
		"store_scanned_total":          st.Scanned,
		"store_keys":                   st.Keys,
		"store_live_bytes":             st.LiveBytes,
		"store_compacted_bytes_total":  st.CompactedBytes,
		"policy_cache_hits_total":      int64(ps.Hits),
		"policy_cache_publishes_total": int64(ps.Publishes),
		"policy_cache_evictions_total": int64(ps.Evictions),
		"policy_cache_bytes":           ps.Bytes,
		"policy_cache_max_bytes":       ps.MaxBytes,
	} {
		if got[fam] != float64(want) {
			t.Errorf("%s = %v, want %d", fam, got[fam], want)
		}
	}
	if got["store_puts_total"] == 0 || got["policy_cache_publishes_total"] == 0 || got["policy_cache_hits_total"] == 0 {
		t.Errorf("the traffic left store puts, publishes or hits at 0: %v", got)
	}
	if got[`admission_admitted_total{route="answers"}`] == 0 || got[`crowd_worker_votes_total{worker="alice"}`] == 0 {
		t.Errorf("admission or per-worker counters at 0: %v", got)
	}
}

// TestObsPolicyCacheMetrics: with a shared policy cache and store tier,
// the cache-hit segment and page-in histogram observe, and the hit-ratio
// gauge renders.
func TestObsPolicyCacheMetrics(t *testing.T) {
	bundle := NewObs()
	kv := store.NewMem()
	pc := joininference.NewPolicyCache(-1)
	pc.AttachStore(kv, 0)
	m, err := NewManager(testRegistry(t), Options{PolicyCache: pc, Obs: bundle})
	if err != nil {
		t.Fatal(err)
	}
	goal := flightGoal(t)
	// Two identical sessions: the second is served from the policy cache.
	for i := 0; i < 2; i++ {
		info, err := m.Create(Params{Instance: "flights", Strategy: joininference.StrategyL2S})
		if err != nil {
			t.Fatal(err)
		}
		driveToDone(t, m, info.ID, goal, 1)
	}
	var buf strings.Builder
	if err := bundle.Metrics.WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	if !strings.Contains(out, "policy_cache_hit_ratio") {
		t.Errorf("missing hit-ratio gauge:\n%s", out)
	}
	if strings.Contains(out, `question_segment_seconds_count{segment="cache"} 0`) {
		t.Error("cache segment histogram never observed")
	}
	if st := pc.Stats(); st.Hits == 0 {
		t.Errorf("expected policy cache hits, got %+v", st)
	}
}

// TestObsPolicyCacheHitRatioWithPageIns: with an LRU bound far too small
// for the decision tree, warm sessions are served by store-tier page-ins;
// the exported hit ratio must still be exactly served lookups over all
// lookups, and never exceed 1.
func TestObsPolicyCacheHitRatioWithPageIns(t *testing.T) {
	bundle := NewObs()
	pc := joininference.NewPolicyCache(360) // ~2 nodes: the walk keeps evicting
	pc.AttachStore(store.NewMem(), 0)
	m, err := NewManager(testRegistry(t), Options{PolicyCache: pc, Obs: bundle})
	if err != nil {
		t.Fatal(err)
	}
	goal := flightGoal(t)
	for i := 0; i < 3; i++ {
		info, err := m.Create(Params{Instance: "flights", Strategy: joininference.StrategyL2S})
		if err != nil {
			t.Fatal(err)
		}
		driveToDone(t, m, info.ID, goal, 1)
	}
	st := pc.Stats()
	if st.PageIns == 0 || st.Tier2Hits == 0 {
		t.Fatalf("no page-ins; the test no longer exercises the store tier: %+v", st)
	}
	var buf strings.Builder
	if err := bundle.Metrics.WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	var got float64
	found := false
	for _, line := range strings.Split(buf.String(), "\n") {
		if v, ok := strings.CutPrefix(line, "policy_cache_hit_ratio "); ok {
			if got, err = strconv.ParseFloat(v, 64); err != nil {
				t.Fatal(err)
			}
			found = true
		}
	}
	if !found {
		t.Fatalf("missing hit-ratio gauge:\n%s", buf.String())
	}
	served := st.Hits + st.Tier2Hits
	if want := float64(served) / float64(served+st.Misses); got != want || got > 1 {
		t.Errorf("policy_cache_hit_ratio = %v, want %v (≤ 1) from %+v", got, want, st)
	}
}

// TestObsStoreOpTimings: the store's Observe hook feeds store_op_seconds.
func TestObsStoreOpTimings(t *testing.T) {
	bundle := NewObs()
	dir := t.TempDir()
	kv, err := store.OpenLog(dir, store.LogOptions{Observe: bundle.StoreObserver()})
	if err != nil {
		t.Fatal(err)
	}
	defer kv.Close()
	if err := kv.Put([]byte("k"), []byte("v")); err != nil {
		t.Fatal(err)
	}
	if err := kv.Sync(); err != nil {
		t.Fatal(err)
	}
	var buf strings.Builder
	if err := bundle.Metrics.WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	if strings.Contains(out, `store_op_seconds_count{op="append"} 0`) || !strings.Contains(out, `store_op_seconds_count{op="append"}`) {
		t.Errorf("append timing not observed:\n%s", out)
	}
	if strings.Contains(out, `store_op_seconds_count{op="fsync"} 0`) {
		t.Errorf("fsync timing not observed:\n%s", out)
	}
}
