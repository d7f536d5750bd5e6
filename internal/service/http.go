package service

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"strconv"
	"time"

	joininference "repro"
	"repro/internal/obs"
	"repro/internal/resilience"
)

// NewHandler mounts the manager's operations as an HTTP/JSON API:
//
//	POST   /sessions                  create a session ({"instance": ...,
//	                                  "strategy": ..., ...}) or resume one
//	                                  ({"snapshot": <service snapshot>})
//	GET    /sessions                  list sessions
//	GET    /sessions/{id}             session status
//	GET    /sessions/{id}/questions?k=N   up to N pairwise-informative
//	                                  questions for parallel crowd dispatch
//	POST   /sessions/{id}/answers     {"answers": [{"r":..,"p":..,"positive":..}]}
//	GET    /sessions/{id}/predicate   current inferred predicate (text + SQL)
//	GET    /sessions/{id}/explain     per-answer Banzhaf attribution scores
//	                                  ("why this join?") plus soft-layer
//	                                  counters for error-tolerant sessions
//	GET    /sessions/{id}/snapshot    durable snapshot (resumable elsewhere)
//	DELETE /sessions/{id}             discard the session
//	GET    /instances                 registered instance names
//	POST   /instances/{id}/rows       ingest one delta ({"insert_r": [[..]],
//	                                  "insert_p": [[..]], "delete_r": [..],
//	                                  "delete_p": [..]}) — the instance moves
//	                                  to its next version, its T-classes are
//	                                  recomputed, live sessions follow by replay
//	GET    /healthz                   liveness
//	GET    /readyz                    readiness: store breaker position,
//	                                  write-behind queue depth, registry and
//	                                  restore health; 503 while degraded
//	GET    /metrics                   every counter, gauge and latency
//	                                  histogram in Prometheus text
//	                                  exposition: sessions, questions and
//	                                  answers, ingests and migrations,
//	                                  registry, policy cache, store,
//	                                  breaker, persist queue, admission
//	                                  gates, per-worker crowd votes
//	GET    /debug/trace?session=&limit=  recently finished trace spans,
//	                                  oldest first, plus per-operation
//	                                  latency percentiles
//
// The whole mux is wrapped in the telemetry middleware: every request gets
// a request id (X-Request-ID accepted in, always set on the response), an
// access-log line, a per-route latency histogram, a root trace span, and
// panic recovery. Request contexts thread into the inference engine, so a
// client disconnect cancels even a long L2S lookahead mid-computation.
//
// Resilience: with Options.RequestTimeout every handler runs under a
// per-request deadline (an expired deadline answers 503 + Retry-After);
// with Options.MaxConcurrent the compute-heavy routes (create/resume,
// questions, answers, ingest) sit behind per-route admission gates that
// shed excess load with 429 + Retry-After instead of queueing without
// bound; GET /readyz reports store/registry/restore health (503 while
// degraded — the node still serves, but load balancers should prefer
// healthy peers).
func NewHandler(m *Manager) http.Handler {
	mux := http.NewServeMux()
	// gated wraps a handler in its route's admission gate: saturation sheds
	// with 429 (the client retries elsewhere), a deadline expiring while
	// queued answers 503 — in both cases without spending any compute.
	gated := func(route string, h http.HandlerFunc) http.HandlerFunc {
		g := m.gateFor(route)
		if g == nil {
			return h
		}
		return func(w http.ResponseWriter, r *http.Request) {
			release, err := g.Acquire(r.Context())
			if err != nil {
				httpError(w, statusFor(err), fmt.Errorf("admission (%s): %w", route, err))
				return
			}
			defer release()
			h(w, r)
		}
	}
	mux.HandleFunc("POST /sessions", gated(routeCreate, func(w http.ResponseWriter, r *http.Request) {
		var req createRequest
		if err := decodeBody(w, r, &req); err != nil {
			httpError(w, statusFor(err), err)
			return
		}
		var info Info
		var err error
		if req.Snapshot != nil {
			info, err = m.Resume(req.Snapshot)
		} else {
			info, err = m.Create(req.Params)
		}
		if err != nil {
			httpError(w, statusFor(err), err)
			return
		}
		writeJSON(w, http.StatusCreated, info)
	}))
	mux.HandleFunc("GET /sessions", func(w http.ResponseWriter, r *http.Request) {
		writeJSON(w, http.StatusOK, listResponse{Sessions: m.List()})
	})
	mux.HandleFunc("GET /sessions/{id}", func(w http.ResponseWriter, r *http.Request) {
		info, err := m.Get(r.PathValue("id"))
		if err != nil {
			httpError(w, statusFor(err), err)
			return
		}
		writeJSON(w, http.StatusOK, info)
	})
	mux.HandleFunc("GET /sessions/{id}/questions", gated(routeQuestions, func(w http.ResponseWriter, r *http.Request) {
		k := 1
		if s := r.URL.Query().Get("k"); s != "" {
			n, err := strconv.Atoi(s)
			if err != nil || n < 1 {
				httpError(w, http.StatusBadRequest, fmt.Errorf("k must be a positive integer, got %q", s))
				return
			}
			k = n
		}
		qs, err := m.Questions(r.Context(), r.PathValue("id"), k)
		if err != nil {
			httpError(w, statusFor(err), err)
			return
		}
		writeJSON(w, http.StatusOK, questionsResponse{Questions: qs, Done: len(qs) == 0})
	}))
	mux.HandleFunc("POST /sessions/{id}/answers", gated(routeAnswers, func(w http.ResponseWriter, r *http.Request) {
		var req answersRequest
		if err := decodeBody(w, r, &req); err != nil {
			httpError(w, statusFor(err), err)
			return
		}
		res, err := m.Answer(r.Context(), r.PathValue("id"), req.Answers)
		if err != nil {
			// Answers apply in order, so a mid-batch failure (inconsistent
			// label, spent budget) leaves a prefix recorded — report the
			// counts so the client knows exactly what was kept.
			writeJSON(w, statusFor(err), answersError{
				Error: err.Error(), Applied: res.Applied, Skipped: res.Skipped,
			})
			return
		}
		writeJSON(w, http.StatusOK, res)
	}))
	mux.HandleFunc("GET /sessions/{id}/predicate", func(w http.ResponseWriter, r *http.Request) {
		p, err := m.Predicate(r.PathValue("id"))
		if err != nil {
			httpError(w, statusFor(err), err)
			return
		}
		writeJSON(w, http.StatusOK, p)
	})
	mux.HandleFunc("GET /sessions/{id}/explain", func(w http.ResponseWriter, r *http.Request) {
		ex, err := m.Explain(r.PathValue("id"))
		if err != nil {
			httpError(w, statusFor(err), err)
			return
		}
		writeJSON(w, http.StatusOK, ex)
	})
	mux.HandleFunc("GET /sessions/{id}/snapshot", func(w http.ResponseWriter, r *http.Request) {
		snap, err := m.Snapshot(r.PathValue("id"))
		if err != nil {
			httpError(w, statusFor(err), err)
			return
		}
		writeJSON(w, http.StatusOK, snap)
	})
	mux.HandleFunc("DELETE /sessions/{id}", func(w http.ResponseWriter, r *http.Request) {
		if err := m.Delete(r.PathValue("id")); err != nil {
			httpError(w, statusFor(err), err)
			return
		}
		w.WriteHeader(http.StatusNoContent)
	})
	mux.HandleFunc("GET /instances", func(w http.ResponseWriter, r *http.Request) {
		writeJSON(w, http.StatusOK, instancesResponse{Instances: m.reg.Names()})
	})
	mux.HandleFunc("POST /instances/{id}/rows", gated(routeIngest, func(w http.ResponseWriter, r *http.Request) {
		var req ingestRequest
		if err := decodeBody(w, r, &req); err != nil {
			httpError(w, statusFor(err), err)
			return
		}
		res, err := m.Ingest(r.PathValue("id"), req.delta())
		if err != nil {
			httpError(w, statusFor(err), err)
			return
		}
		writeJSON(w, http.StatusOK, res)
	}))
	mux.HandleFunc("GET /healthz", func(w http.ResponseWriter, r *http.Request) {
		writeJSON(w, http.StatusOK, map[string]string{"status": "ok"})
	})
	mux.HandleFunc("GET /readyz", func(w http.ResponseWriter, r *http.Request) {
		h := m.Health()
		code := http.StatusOK
		if h.Status != "ok" {
			// Degraded, not down: the node keeps serving from live compute
			// and RAM, but load balancers should prefer healthy peers.
			code = http.StatusServiceUnavailable
		}
		writeJSON(w, code, h)
	})
	o := m.opts.Obs
	mux.HandleFunc("GET /metrics", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", obs.PromContentType)
		_ = o.Metrics.WritePrometheus(w)
	})
	mux.HandleFunc("GET /debug/trace", func(w http.ResponseWriter, r *http.Request) {
		limit := 0
		if s := r.URL.Query().Get("limit"); s != "" {
			n, err := strconv.Atoi(s)
			if err != nil || n < 1 {
				httpError(w, http.StatusBadRequest, fmt.Errorf("limit must be a positive integer, got %q", s))
				return
			}
			limit = n
		}
		session := r.URL.Query().Get("session")
		writeJSON(w, http.StatusOK, traceResponse{
			Spans:   o.Tracer.Recent(session, limit),
			Total:   o.Tracer.Total(),
			Summary: o.Tracer.Summarize(),
		})
	})
	cfg := obs.MiddlewareConfig{Logger: m.opts.Logger, Metrics: o.HTTP, Tracer: o.Tracer}
	return obs.Middleware(withRequestTimeout(mux, m.opts.RequestTimeout), cfg)
}

// withRequestTimeout caps every request's context at d (0 = no cap). The
// deadline threads through handlers into the engine, so an over-budget L2S
// lookahead stops computing and the handler answers 503 + Retry-After via
// statusFor(context.DeadlineExceeded).
func withRequestTimeout(next http.Handler, d time.Duration) http.Handler {
	if d <= 0 {
		return next
	}
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		ctx, cancel := context.WithTimeout(r.Context(), d)
		defer cancel()
		next.ServeHTTP(w, r.WithContext(ctx))
	})
}

// traceResponse is the body of GET /debug/trace: the retained spans
// (filtered/limited per the query), how many spans ever finished, and
// exact per-operation latency percentiles over the retained window.
type traceResponse struct {
	Spans   []obs.Span        `json:"spans"`
	Total   uint64            `json:"total"`
	Summary []obs.NameSummary `json:"summary,omitempty"`
}

// createRequest accepts either creation params or a snapshot to resume.
type createRequest struct {
	Params
	Snapshot *SessionSnapshot `json:"snapshot,omitempty"`
}

type listResponse struct {
	Sessions []Info `json:"sessions"`
}

type questionsResponse struct {
	// Questions marshal through Question.MarshalJSON: row indexes, values
	// and attribute names. Done is true when none remain (Γ reached).
	Questions []joininference.Question `json:"questions"`
	Done      bool                     `json:"done"`
}

type answersRequest struct {
	Answers []Answer `json:"answers"`
}

type instancesResponse struct {
	Instances []string `json:"instances"`
}

// ingestRequest is the body of POST /instances/{id}/rows: rows to append
// and current row indexes to delete, applied as one atomic delta (one new
// instance version).
type ingestRequest struct {
	InsertR [][]string `json:"insert_r,omitempty"`
	InsertP [][]string `json:"insert_p,omitempty"`
	DeleteR []int      `json:"delete_r,omitempty"`
	DeleteP []int      `json:"delete_p,omitempty"`
}

func (req ingestRequest) delta() joininference.Delta {
	d := joininference.Delta{DeleteR: req.DeleteR, DeleteP: req.DeleteP}
	for _, t := range req.InsertR {
		d.InsertR = append(d.InsertR, joininference.Tuple(t))
	}
	for _, t := range req.InsertP {
		d.InsertP = append(d.InsertP, joininference.Tuple(t))
	}
	return d
}

// maxRequestBody caps a request body: far above any real create, answer
// batch or ingest, low enough that one request cannot hold memory for the
// whole read timeout.
const maxRequestBody = 16 << 20

// errBadRequest marks a request body that does not decode.
var errBadRequest = errors.New("service: bad request body")

// decodeBody decodes a JSON request body of at most maxRequestBody bytes.
func decodeBody(w http.ResponseWriter, r *http.Request, v any) error {
	if err := json.NewDecoder(http.MaxBytesReader(w, r.Body, maxRequestBody)).Decode(v); err != nil {
		return fmt.Errorf("%w: %w", errBadRequest, err)
	}
	return nil
}

type errorResponse struct {
	Error string `json:"error"`
}

// answersError is the error body of POST /sessions/{id}/answers: the
// failure plus how much of the batch was recorded before it.
type answersError struct {
	Error   string `json:"error"`
	Applied int    `json:"applied"`
	Skipped int    `json:"skipped"`
}

// statusFor maps service and inference errors onto HTTP statuses.
func statusFor(err error) int {
	var tooLarge *http.MaxBytesError
	switch {
	case errors.As(err, &tooLarge):
		return http.StatusRequestEntityTooLarge
	case errors.Is(err, ErrSessionNotFound), errors.Is(err, ErrUnknownInstance):
		return http.StatusNotFound
	case errors.Is(err, joininference.ErrBudgetExhausted),
		errors.Is(err, joininference.ErrInconsistent),
		errors.Is(err, joininference.ErrStaleVersion):
		return http.StatusConflict
	case errors.Is(err, joininference.ErrUnknownStrategy),
		errors.Is(err, joininference.ErrBadSnapshot),
		errors.Is(err, joininference.ErrBadTranscript),
		errors.Is(err, joininference.ErrBadQuestionRef),
		errors.Is(err, ErrBadDelta),
		errors.Is(err, errBadRequest):
		return http.StatusBadRequest
	case errors.Is(err, resilience.ErrSaturated):
		// Admission gate full: shed, retry elsewhere (Retry-After is set).
		return http.StatusTooManyRequests
	case errors.Is(err, context.DeadlineExceeded):
		// The server-side request deadline expired: overload, not client
		// error — 503 + Retry-After tells the client to back off and retry.
		return http.StatusServiceUnavailable
	case errors.Is(err, context.Canceled):
		// The client went away; the status is moot but a 4xx keeps logs
		// honest.
		return http.StatusRequestTimeout
	case errors.Is(err, ErrClosed), errors.Is(err, ErrStoreUnavailable):
		return http.StatusServiceUnavailable
	default:
		return http.StatusInternalServerError
	}
}

func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	if status == http.StatusTooManyRequests || status == http.StatusServiceUnavailable {
		// Shed or degraded: tell well-behaved clients when to come back.
		w.Header().Set("Retry-After", "1")
	}
	w.WriteHeader(status)
	_ = json.NewEncoder(w).Encode(v)
}

func httpError(w http.ResponseWriter, status int, err error) {
	writeJSON(w, status, errorResponse{Error: err.Error()})
}
