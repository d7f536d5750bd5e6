package service

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"testing"

	joininference "repro"
	"repro/internal/paperdata"
)

// BenchmarkObs measures warm L2S serving with the always-on telemetry:
// each iteration drives one session to convergence, once through the real
// handler stack (mux, middleware, JSON codec) and once against the bare
// manager. Every manager counts into its Obs registry and traces its
// Questions/Answer calls, so there is no telemetry-off variant; the
// root package's WithTelemetry stays optional for library users.
func BenchmarkObs(b *testing.B) {
	inst := paperdata.FlightHotel()
	u := joininference.NewSession(inst).Universe()
	goal, err := joininference.PredFromNames(u, [2]string{"To", "City"}, [2]string{"Airline", "Discount"})
	if err != nil {
		b.Fatal(err)
	}
	reg := NewRegistry()
	if err := reg.RegisterInstance("flights", inst); err != nil {
		b.Fatal(err)
	}
	if _, err := reg.Get("flights"); err != nil { // pay class precompute up front
		b.Fatal(err)
	}
	oracle := joininference.HonestOracle(goal)
	ctx := context.Background()

	driveManager := func(m *Manager) error {
		info, err := m.Create(Params{Instance: "flights", Strategy: joininference.StrategyL2S})
		if err != nil {
			return err
		}
		for {
			qs, err := m.Questions(ctx, info.ID, 2)
			if err != nil {
				return err
			}
			if len(qs) == 0 {
				break
			}
			answers := make([]Answer, len(qs))
			for i, q := range qs {
				l, err := oracle.Label(ctx, q)
				if err != nil {
					return err
				}
				answers[i] = Answer{QuestionRef: q.Ref(), Positive: bool(l)}
			}
			if _, err := m.Answer(ctx, info.ID, answers); err != nil {
				return err
			}
		}
		return m.Delete(info.ID)
	}

	do := func(h http.Handler, method, path string, body any, out any) error {
		var buf bytes.Buffer
		if body != nil {
			if err := json.NewEncoder(&buf).Encode(body); err != nil {
				return err
			}
		}
		req := httptest.NewRequest(method, path, &buf)
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, req)
		if rec.Code/100 != 2 {
			return fmt.Errorf("%s %s: status %d: %s", method, path, rec.Code, rec.Body.String())
		}
		if out != nil {
			return json.Unmarshal(rec.Body.Bytes(), out)
		}
		return nil
	}

	driveHandler := func(h http.Handler) error {
		var info Info
		if err := do(h, http.MethodPost, "/sessions",
			Params{Instance: "flights", Strategy: joininference.StrategyL2S}, &info); err != nil {
			return err
		}
		for {
			var qr wireQuestions
			if err := do(h, http.MethodGet, "/sessions/"+info.ID+"/questions?k=2", nil, &qr); err != nil {
				return err
			}
			if len(qr.Questions) == 0 {
				break
			}
			var res AnswerResult
			if err := do(h, http.MethodPost, "/sessions/"+info.ID+"/answers",
				answersRequest{Answers: honestAnswers(inst, goal, qr.Questions)}, &res); err != nil {
				return err
			}
		}
		return do(h, http.MethodDelete, "/sessions/"+info.ID, nil, nil)
	}

	b.Run("http", func(b *testing.B) {
		m, err := NewManager(reg, Options{})
		if err != nil {
			b.Fatal(err)
		}
		h := NewHandler(m)
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if err := driveHandler(h); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("manager", func(b *testing.B) {
		m, err := NewManager(reg, Options{})
		if err != nil {
			b.Fatal(err)
		}
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if err := driveManager(m); err != nil {
				b.Fatal(err)
			}
		}
	})
}
