package service

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	joininference "repro"
	"repro/internal/paperdata"
	"repro/internal/predicate"
	"repro/internal/store"
)

// wireQuestion is the client-side decoding of a question's wire form.
type wireQuestion struct {
	R                int      `json:"r"`
	P                int      `json:"p"`
	RTuple           []string `json:"r_tuple"`
	PTuple           []string `json:"p_tuple"`
	EquivalentTuples int64    `json:"equivalent_tuples"`
}

type wireQuestions struct {
	Questions []wireQuestion `json:"questions"`
	Done      bool           `json:"done"`
}

// doJSON performs a request and decodes the JSON response into out
// (skipped when out is nil), failing the test on unexpected status.
func doJSON(t *testing.T, client *http.Client, method, url string, body any, wantStatus int, out any) {
	t.Helper()
	var buf bytes.Buffer
	if body != nil {
		if err := json.NewEncoder(&buf).Encode(body); err != nil {
			t.Fatal(err)
		}
	}
	req, err := http.NewRequest(method, url, &buf)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := client.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != wantStatus {
		var e errorResponse
		_ = json.NewDecoder(resp.Body).Decode(&e)
		t.Fatalf("%s %s: status %d (want %d): %s", method, url, resp.StatusCode, wantStatus, e.Error)
	}
	if out != nil {
		if err := json.NewDecoder(resp.Body).Decode(out); err != nil {
			t.Fatal(err)
		}
	}
}

// honestAnswers labels wire questions against the goal using only the row
// indexes — exactly what a remote crowd UI would do with its own copy of
// the data.
func honestAnswers(inst *joininference.Instance, goal joininference.Pred, qs []wireQuestion) []Answer {
	u := predicate.NewUniverse(inst)
	out := make([]Answer, len(qs))
	for i, q := range qs {
		var positive bool
		if q.P < 0 {
			for _, tP := range inst.P.Tuples {
				if goal.Selects(u, inst.R.Tuples[q.R], tP) {
					positive = true
					break
				}
			}
		} else {
			positive = goal.Selects(u, inst.R.Tuples[q.R], inst.P.Tuples[q.P])
		}
		out[i] = Answer{QuestionRef: joininference.QuestionRef{RIndex: q.R, PIndex: q.P}, Positive: positive}
	}
	return out
}

// driveHTTP answers a session over the wire until done, returning the refs
// asked in order.
func driveHTTP(t *testing.T, client *http.Client, base, id string, inst *joininference.Instance, goal joininference.Pred, k int) []joininference.QuestionRef {
	t.Helper()
	var refs []joininference.QuestionRef
	for {
		var qr wireQuestions
		doJSON(t, client, http.MethodGet, fmt.Sprintf("%s/sessions/%s/questions?k=%d", base, id, k), nil, http.StatusOK, &qr)
		if qr.Done {
			return refs
		}
		answers := honestAnswers(inst, goal, qr.Questions)
		for _, a := range answers {
			refs = append(refs, a.QuestionRef)
		}
		var res AnswerResult
		doJSON(t, client, http.MethodPost, fmt.Sprintf("%s/sessions/%s/answers", base, id), answersRequest{Answers: answers}, http.StatusOK, &res)
	}
}

// TestHTTPEndToEnd is the CI smoke: create a session over HTTP, answer
// batches of questions to convergence, and fetch the predicate.
func TestHTTPEndToEnd(t *testing.T) {
	m, err := NewManager(testRegistry(t), Options{})
	if err != nil {
		t.Fatal(err)
	}
	srv := httptest.NewServer(NewHandler(m))
	defer srv.Close()
	client := srv.Client()
	inst := paperdata.FlightHotel()
	goal := flightGoal(t)

	var inst2 instancesResponse
	doJSON(t, client, http.MethodGet, srv.URL+"/instances", nil, http.StatusOK, &inst2)
	if len(inst2.Instances) != 2 {
		t.Fatalf("instances = %v", inst2.Instances)
	}

	var info Info
	doJSON(t, client, http.MethodPost, srv.URL+"/sessions",
		Params{Instance: "flights", Strategy: joininference.StrategyL2S}, http.StatusCreated, &info)
	if info.ID == "" || info.Done {
		t.Fatalf("created info: %+v", info)
	}

	refs := driveHTTP(t, client, srv.URL, info.ID, inst, goal, 2)
	if len(refs) == 0 {
		t.Fatal("no questions asked over HTTP")
	}

	var p PredicateInfo
	doJSON(t, client, http.MethodGet, srv.URL+"/sessions/"+info.ID+"/predicate", nil, http.StatusOK, &p)
	if !p.Done {
		t.Error("session should be done")
	}
	u := joininference.NewSession(inst).Universe()
	if p.Predicate != goal.Format(u) {
		t.Errorf("inferred %q over HTTP, want %q", p.Predicate, goal.Format(u))
	}

	var snap SessionSnapshot
	doJSON(t, client, http.MethodGet, srv.URL+"/sessions/"+info.ID+"/snapshot", nil, http.StatusOK, &snap)
	if snap.ID != info.ID || snap.Snapshot == nil || snap.Snapshot.Asked != p.Asked {
		t.Errorf("snapshot over HTTP: %+v", snap)
	}

	doJSON(t, client, http.MethodDelete, srv.URL+"/sessions/"+info.ID, nil, http.StatusNoContent, nil)
	doJSON(t, client, http.MethodGet, srv.URL+"/sessions/"+info.ID, nil, http.StatusNotFound, nil)
}

// TestHTTPEmptyPredicateRoundtrip: a session that infers the empty
// conjunction reports it as "TRUE" over HTTP, and the text parses back to
// the empty predicate.
func TestHTTPEmptyPredicateRoundtrip(t *testing.T) {
	m, err := NewManager(testRegistry(t), Options{})
	if err != nil {
		t.Fatal(err)
	}
	srv := httptest.NewServer(NewHandler(m))
	defer srv.Close()
	client := srv.Client()
	inst := paperdata.FlightHotel()

	var info Info
	doJSON(t, client, http.MethodPost, srv.URL+"/sessions",
		Params{Instance: "flights", Strategy: joininference.StrategyL2S}, http.StatusCreated, &info)
	driveHTTP(t, client, srv.URL, info.ID, inst, predicate.Empty(), 2)

	var p PredicateInfo
	doJSON(t, client, http.MethodGet, srv.URL+"/sessions/"+info.ID+"/predicate", nil, http.StatusOK, &p)
	if !p.Done || p.Predicate != "TRUE" {
		t.Fatalf("predicate info %+v; want done with \"TRUE\"", p)
	}
	got, err := joininference.ParsePredicate(joininference.NewSession(inst).Universe(), p.Predicate)
	if err != nil {
		t.Fatal(err)
	}
	if !got.Equal(predicate.Empty()) {
		t.Errorf("%q parsed to %v; want the empty predicate", p.Predicate, got)
	}
}

// TestHTTPSnapshotResumeRoundtrip hands a snapshot fetched over HTTP back
// to POST /sessions and checks the resumed session picks up where the
// original left off.
func TestHTTPSnapshotResumeRoundtrip(t *testing.T) {
	m, err := NewManager(testRegistry(t), Options{})
	if err != nil {
		t.Fatal(err)
	}
	srv := httptest.NewServer(NewHandler(m))
	defer srv.Close()
	client := srv.Client()
	inst := paperdata.FlightHotel()
	goal := flightGoal(t)

	var info Info
	doJSON(t, client, http.MethodPost, srv.URL+"/sessions", Params{Instance: "flights"}, http.StatusCreated, &info)
	var qr wireQuestions
	doJSON(t, client, http.MethodGet, srv.URL+"/sessions/"+info.ID+"/questions?k=1", nil, http.StatusOK, &qr)
	answers := honestAnswers(inst, goal, qr.Questions)
	doJSON(t, client, http.MethodPost, srv.URL+"/sessions/"+info.ID+"/answers", answersRequest{Answers: answers}, http.StatusOK, nil)

	var snap SessionSnapshot
	doJSON(t, client, http.MethodGet, srv.URL+"/sessions/"+info.ID+"/snapshot", nil, http.StatusOK, &snap)
	doJSON(t, client, http.MethodDelete, srv.URL+"/sessions/"+info.ID, nil, http.StatusNoContent, nil)

	var resumed Info
	doJSON(t, client, http.MethodPost, srv.URL+"/sessions", createRequest{Snapshot: &snap}, http.StatusCreated, &resumed)
	if resumed.Asked != 1 {
		t.Fatalf("resumed with %d answers, want 1", resumed.Asked)
	}
	driveHTTP(t, client, srv.URL, resumed.ID, inst, goal, 1)
	var p PredicateInfo
	doJSON(t, client, http.MethodGet, srv.URL+"/sessions/"+resumed.ID+"/predicate", nil, http.StatusOK, &p)
	u := joininference.NewSession(inst).Universe()
	if !p.Done || p.Predicate != goal.Format(u) {
		t.Errorf("resumed session inferred %q (done=%v), want %q", p.Predicate, p.Done, goal.Format(u))
	}
}

// TestHTTPPersistRestoreDeterminism is the acceptance differential through
// the HTTP server's persist/restore path: answer halfway against server A,
// shut it down (persisting, then closing its on-disk log store), boot
// server B on the reopened store, finish there — the combined question sequence and final predicate must be
// bit-identical to an uninterrupted run.
func TestHTTPPersistRestoreDeterminism(t *testing.T) {
	inst := paperdata.FlightHotel()
	goal := flightGoal(t)
	u := joininference.NewSession(inst).Universe()
	params := Params{Instance: "flights", Strategy: joininference.StrategyRND, Seed: 5}

	// Uninterrupted reference run (its own server).
	mFull, err := NewManager(testRegistry(t), Options{})
	if err != nil {
		t.Fatal(err)
	}
	srvFull := httptest.NewServer(NewHandler(mFull))
	defer srvFull.Close()
	var full Info
	doJSON(t, srvFull.Client(), http.MethodPost, srvFull.URL+"/sessions", params, http.StatusCreated, &full)
	fullRefs := driveHTTP(t, srvFull.Client(), srvFull.URL, full.ID, inst, goal, 1)
	var fullPred PredicateInfo
	doJSON(t, srvFull.Client(), http.MethodGet, srvFull.URL+"/sessions/"+full.ID+"/predicate", nil, http.StatusOK, &fullPred)
	if len(fullRefs) < 2 {
		t.Fatalf("want ≥ 2 questions, got %d", len(fullRefs))
	}

	// Server A: answer half, then shut down with persistence.
	dir := t.TempDir()
	kvA, err := store.OpenLog(dir, store.LogOptions{})
	if err != nil {
		t.Fatal(err)
	}
	mA, err := NewManager(testRegistry(t), Options{Store: kvA})
	if err != nil {
		t.Fatal(err)
	}
	srvA := httptest.NewServer(NewHandler(mA))
	var interrupted Info
	doJSON(t, srvA.Client(), http.MethodPost, srvA.URL+"/sessions", params, http.StatusCreated, &interrupted)
	half := len(fullRefs) / 2
	var prefix []joininference.QuestionRef
	for len(prefix) < half {
		var qr wireQuestions
		doJSON(t, srvA.Client(), http.MethodGet, srvA.URL+"/sessions/"+interrupted.ID+"/questions?k=1", nil, http.StatusOK, &qr)
		if qr.Done {
			t.Fatal("done before the interruption point")
		}
		answers := honestAnswers(inst, goal, qr.Questions)
		doJSON(t, srvA.Client(), http.MethodPost, srvA.URL+"/sessions/"+interrupted.ID+"/answers", answersRequest{Answers: answers}, http.StatusOK, nil)
		prefix = append(prefix, answers[0].QuestionRef)
	}
	srvA.Close()
	if err := mA.Close(context.Background()); err != nil {
		t.Fatal(err)
	}
	if err := kvA.Close(); err != nil {
		t.Fatal(err)
	}

	// Server B: restore from disk, finish the run.
	kvB, err := store.OpenLog(dir, store.LogOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer kvB.Close()
	mB, err := NewManager(testRegistry(t), Options{Store: kvB})
	if err != nil {
		t.Fatal(err)
	}
	srvB := httptest.NewServer(NewHandler(mB))
	defer srvB.Close()
	var restored Info
	doJSON(t, srvB.Client(), http.MethodGet, srvB.URL+"/sessions/"+interrupted.ID, nil, http.StatusOK, &restored)
	if restored.Asked != half {
		t.Fatalf("restored with %d answers, want %d", restored.Asked, half)
	}
	rest := driveHTTP(t, srvB.Client(), srvB.URL, interrupted.ID, inst, goal, 1)

	got := append(append([]joininference.QuestionRef(nil), prefix...), rest...)
	if len(got) != len(fullRefs) {
		t.Fatalf("restored run asked %d questions, uninterrupted %d", len(got), len(fullRefs))
	}
	for i := range got {
		if got[i] != fullRefs[i] {
			t.Fatalf("question %d diverged after restore: %v vs %v", i, got[i], fullRefs[i])
		}
	}
	var p PredicateInfo
	doJSON(t, srvB.Client(), http.MethodGet, srvB.URL+"/sessions/"+interrupted.ID+"/predicate", nil, http.StatusOK, &p)
	if p.Predicate != fullPred.Predicate || p.Predicate != goal.Format(u) {
		t.Errorf("restored predicate %q, uninterrupted %q, goal %q", p.Predicate, fullPred.Predicate, goal.Format(u))
	}
}

func TestHTTPErrorMapping(t *testing.T) {
	m, err := NewManager(testRegistry(t), Options{})
	if err != nil {
		t.Fatal(err)
	}
	srv := httptest.NewServer(NewHandler(m))
	defer srv.Close()
	client := srv.Client()

	doJSON(t, client, http.MethodPost, srv.URL+"/sessions", Params{Instance: "no-such"}, http.StatusNotFound, nil)
	doJSON(t, client, http.MethodPost, srv.URL+"/sessions", Params{Instance: "flights", Strategy: "BOGUS"}, http.StatusBadRequest, nil)
	doJSON(t, client, http.MethodGet, srv.URL+"/sessions/deadbeef", nil, http.StatusNotFound, nil)
	doJSON(t, client, http.MethodGet, srv.URL+"/sessions/deadbeef/questions?k=0", nil, http.StatusBadRequest, nil)
	doJSON(t, client, http.MethodDelete, srv.URL+"/sessions/deadbeef", nil, http.StatusNotFound, nil)
	// Params and snapshots the store could not read back are refused before
	// anything is persisted, and so is a body over the size cap.
	doJSON(t, client, http.MethodPost, srv.URL+"/sessions", Params{Instance: "flights", Budget: -1}, http.StatusBadRequest, nil)
	doJSON(t, client, http.MethodPost, srv.URL+"/sessions", createRequest{Snapshot: &SessionSnapshot{Instance: "flights",
		Snapshot: &joininference.Snapshot{Version: 1, Kind: joininference.SnapshotKindJoin, Budget: -1}}}, http.StatusBadRequest, nil)
	doJSON(t, client, http.MethodPost, srv.URL+"/sessions", Params{Instance: strings.Repeat("x", maxRequestBody)}, http.StatusRequestEntityTooLarge, nil)

	// A malformed question ref is the client's fault: 400, not 500, and
	// nothing from the batch is recorded.
	var bad Info
	doJSON(t, client, http.MethodPost, srv.URL+"/sessions", Params{Instance: "flights"}, http.StatusCreated, &bad)
	doJSON(t, client, http.MethodPost, srv.URL+"/sessions/"+bad.ID+"/answers",
		answersRequest{Answers: []Answer{{QuestionRef: joininference.QuestionRef{RIndex: 99, PIndex: 99}, Positive: true}}},
		http.StatusBadRequest, nil)
	var after Info
	doJSON(t, client, http.MethodGet, srv.URL+"/sessions/"+bad.ID, nil, http.StatusOK, &after)
	if after.Asked != 0 {
		t.Errorf("rejected batch recorded %d answers", after.Asked)
	}

	// A spent budget maps to 409 while questions remain.
	var info Info
	doJSON(t, client, http.MethodPost, srv.URL+"/sessions", Params{Instance: "flights", Budget: 1}, http.StatusCreated, &info)
	var qr wireQuestions
	doJSON(t, client, http.MethodGet, srv.URL+"/sessions/"+info.ID+"/questions?k=1", nil, http.StatusOK, &qr)
	answers := honestAnswers(paperdata.FlightHotel(), flightGoal(t), qr.Questions)
	doJSON(t, client, http.MethodPost, srv.URL+"/sessions/"+info.ID+"/answers", answersRequest{Answers: answers}, http.StatusOK, nil)
	doJSON(t, client, http.MethodGet, srv.URL+"/sessions/"+info.ID+"/questions?k=1", nil, http.StatusConflict, nil)
}
