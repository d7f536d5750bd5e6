package service

import (
	"context"
	"fmt"
	"net/http"
	"net/http/httptest"
	"testing"

	joininference "repro"
)

// driveSoft answers a soft managed session with a 4-worker panel per
// question — mallory always wrong, the rest honest — until no questions
// remain, returning how many questions were asked.
func driveSoft(t *testing.T, m *Manager, id string, goal joininference.Pred) int {
	t.Helper()
	ctx := context.Background()
	oracle := joininference.HonestOracle(goal)
	asked := 0
	for rounds := 0; ; rounds++ {
		if rounds > 1000 {
			t.Fatal("soft session did not converge")
		}
		qs, err := m.Questions(ctx, id, 2)
		if err != nil {
			t.Fatal(err)
		}
		if len(qs) == 0 {
			return asked
		}
		var answers []Answer
		for _, q := range qs {
			asked++
			l, err := oracle.Label(ctx, q)
			if err != nil {
				t.Fatal(err)
			}
			truth := bool(l)
			answers = append(answers,
				Answer{QuestionRef: q.Ref(), Positive: !truth, Worker: "mallory"},
				Answer{QuestionRef: q.Ref(), Positive: truth, Worker: "alice"},
				Answer{QuestionRef: q.Ref(), Positive: truth, Worker: "bob"},
				Answer{QuestionRef: q.Ref(), Positive: truth, Worker: "carol"},
			)
		}
		if _, err := m.Answer(ctx, id, answers); err != nil {
			t.Fatal(err)
		}
	}
}

// TestManagerSoftSession drives a soft session end to end through the
// manager: per-worker votes aggregate under the belief threshold, the crowd
// metrics attribute every vote, Explain reports attributions, and a
// snapshot resume carries the soft parameters.
func TestManagerSoftSession(t *testing.T) {
	m, err := NewManager(testRegistry(t), Options{})
	if err != nil {
		t.Fatal(err)
	}
	info, err := m.Create(Params{
		Instance: "flights", Strategy: joininference.StrategyTD,
		SoftThreshold: 2, ErrorBudget: 2,
	})
	if err != nil {
		t.Fatal(err)
	}
	if info.Soft == nil || !info.Soft.Enabled || info.Soft.Threshold != 2 || info.Soft.ErrorBudget != 2 {
		t.Fatalf("fresh soft info: %+v", info.Soft)
	}

	driveSoft(t, m, info.ID, flightGoal(t))

	final, err := m.Get(info.ID)
	if err != nil {
		t.Fatal(err)
	}
	if !final.Done {
		t.Fatalf("session not done: %+v", final)
	}
	if final.Soft == nil || final.Soft.Votes == 0 {
		t.Fatalf("final soft stats: %+v", final.Soft)
	}

	ex, err := m.Explain(info.ID)
	if err != nil {
		t.Fatal(err)
	}
	if len(ex.Attributions) != final.Asked {
		t.Fatalf("explain has %d attributions, session committed %d answers",
			len(ex.Attributions), final.Asked)
	}
	if ex.Soft == nil || !ex.Soft.Enabled {
		t.Fatalf("explain soft stats: %+v", ex.Soft)
	}
	for _, a := range ex.Attributions {
		if len(a.Workers) == 0 {
			t.Fatalf("attribution %+v has no worker votes", a.Ref)
		}
	}

	met := m.Metrics()
	if met.Crowd == nil {
		t.Fatal("crowd metrics absent after soft commits")
	}
	if met.Crowd.Commits != int64(final.Asked) {
		t.Errorf("crowd commits = %d, want %d", met.Crowd.Commits, final.Asked)
	}
	if met.Crowd.Votes != int64(4*final.Asked) {
		t.Errorf("crowd votes = %d, want %d", met.Crowd.Votes, 4*final.Asked)
	}
	got := samples(t, exposition(t, m.opts.Obs.Metrics))
	asked := float64(final.Asked)
	if v, a := got[`crowd_worker_votes_total{worker="mallory"}`], got[`crowd_worker_agreed_total{worker="mallory"}`]; v != asked || a != 0 {
		t.Errorf("mallory: %v votes, %v agreed, want %v votes and 0 agreed", v, a, asked)
	}
	if v, a := got[`crowd_worker_votes_total{worker="alice"}`], got[`crowd_worker_agreed_total{worker="alice"}`]; v != asked || a != asked {
		t.Errorf("alice: %v votes, %v agreed, want %v votes all agreed", v, a, asked)
	}

	// A snapshot carries the soft layer: resuming restores the threshold,
	// budget, and vote evidence.
	snap, err := m.Snapshot(info.ID)
	if err != nil {
		t.Fatal(err)
	}
	if err := m.Delete(info.ID); err != nil {
		t.Fatal(err)
	}
	resumed, err := m.Resume(snap)
	if err != nil {
		t.Fatal(err)
	}
	if resumed.Soft == nil || !resumed.Soft.Enabled || resumed.Soft.Threshold != 2 ||
		resumed.Soft.ErrorBudget != 2 || resumed.Soft.Votes != final.Soft.Votes {
		t.Fatalf("resumed soft stats: %+v, want %+v", resumed.Soft, final.Soft)
	}
	ex2, err := m.Explain(resumed.ID)
	if err != nil {
		t.Fatal(err)
	}
	if len(ex2.Attributions) != len(ex.Attributions) {
		t.Fatalf("resumed explain has %d attributions, want %d", len(ex2.Attributions), len(ex.Attributions))
	}
}

// TestHTTPExplainAndCrowdMetrics exercises the wire form: the explain
// endpoint serves attributions plus soft counters, and /metrics exposes
// the crowd totals and the per-worker vote counts.
func TestHTTPExplainAndCrowdMetrics(t *testing.T) {
	m, err := NewManager(testRegistry(t), Options{})
	if err != nil {
		t.Fatal(err)
	}
	srv := httptest.NewServer(NewHandler(m))
	defer srv.Close()
	client := srv.Client()

	var info Info
	doJSON(t, client, http.MethodPost, srv.URL+"/sessions", createRequest{Params: Params{
		Instance: "flights", Strategy: joininference.StrategyBU,
		SoftThreshold: 2, ErrorBudget: 1,
	}}, http.StatusCreated, &info)

	driveSoft(t, m, info.ID, flightGoal(t))

	var ex Explanation
	doJSON(t, client, http.MethodGet, fmt.Sprintf("%s/sessions/%s/explain", srv.URL, info.ID),
		nil, http.StatusOK, &ex)
	if ex.ID != info.ID || len(ex.Attributions) == 0 || ex.Soft == nil {
		t.Fatalf("explain response: id=%q attributions=%d soft=%+v", ex.ID, len(ex.Attributions), ex.Soft)
	}

	got := samples(t, getMetrics(t, client, srv.URL))
	if got["soft_commits_total"] == 0 || got["crowd_votes_total"] != 4*got["soft_commits_total"] {
		t.Fatalf("crowd totals over HTTP: %v commits, %v votes", got["soft_commits_total"], got["crowd_votes_total"])
	}
	for _, w := range []string{"alice", "bob", "carol", "mallory"} {
		if got[`crowd_worker_votes_total{worker="`+w+`"}`] != got["soft_commits_total"] {
			t.Errorf("%s: %v votes over HTTP, want one per commit (%v)",
				w, got[`crowd_worker_votes_total{worker="`+w+`"}`], got["soft_commits_total"])
		}
	}

	// A hard session has no explain-breaking state: the endpoint still
	// serves attributions, with no soft section.
	var hard Info
	doJSON(t, client, http.MethodPost, srv.URL+"/sessions", createRequest{Params: Params{
		Instance: "flights", Strategy: joininference.StrategyBU,
	}}, http.StatusCreated, &hard)
	driveToDone(t, m, hard.ID, flightGoal(t), 2)
	var hardEx Explanation
	doJSON(t, client, http.MethodGet, fmt.Sprintf("%s/sessions/%s/explain", srv.URL, hard.ID),
		nil, http.StatusOK, &hardEx)
	if len(hardEx.Attributions) == 0 || hardEx.Soft != nil {
		t.Fatalf("hard explain response: attributions=%d soft=%+v", len(hardEx.Attributions), hardEx.Soft)
	}

	doJSON(t, client, http.MethodGet, srv.URL+"/sessions/nope/explain", nil, http.StatusNotFound, nil)
}
