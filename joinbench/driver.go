package main

import (
	"bufio"
	"container/heap"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"math/rand"
	"net"
	"net/http"
	"sort"
	"strings"
	"sync"
	"time"

	ji "repro"
	"repro/internal/service"
)

// reqKind names the requests a session (or the writer) sends.
type reqKind int

const (
	reqCreate reqKind = iota
	reqQuestions
	reqAnswers
	reqPredicate
	reqDelete
	reqIngest
	numKinds
)

var kindNames = [numKinds]string{"create", "questions", "answers", "predicate", "delete", "ingest"}

// crowd answers one session's questions honestly from the goal, except for
// the planted lie, and attributes soft votes to a rotating worker pool.
type crowd struct {
	sp      *spec
	sent    int
	workers int
}

func newCrowd(sp *spec, rng *rand.Rand) *crowd {
	c := &crowd{sp: sp}
	if rng != nil {
		c.workers = rng.Intn(5)
	}
	return c
}

// truth is the honest label: the goal selects the tuple (join), or some row
// of P joins the R row (semijoin).
func (c *crowd) truth(rt, pt ji.Tuple) bool {
	in := c.sp.in
	if c.sp.semijoin {
		for _, p := range in.inst.P.Tuples {
			if c.sp.goal.Selects(in.u, rt, p) {
				return true
			}
		}
		return false
	}
	return c.sp.goal.Selects(in.u, rt, pt)
}

func (c *crowd) answer(ref ji.QuestionRef, rt, pt ji.Tuple) service.Answer {
	positive := c.truth(rt, pt)
	if c.sent == c.sp.liePos {
		positive = !positive
	}
	c.sent++
	a := service.Answer{QuestionRef: ref, Positive: positive}
	if c.sp.soft {
		a.Worker = fmt.Sprintf("worker-%d", (c.workers+c.sent)%5)
	}
	return a
}

// Wire shapes of the replies the crowd reads.
type wireQuestion struct {
	R      int      `json:"r"`
	P      int      `json:"p"`
	RTuple []string `json:"r_tuple"`
	PTuple []string `json:"p_tuple"`
}

type questionsReply struct {
	Questions []wireQuestion `json:"questions"`
	Done      bool           `json:"done"`
}

type answered struct {
	rt, pt   ji.Tuple
	positive bool
}

// session is one crowd session as the generator drives it.
type session struct {
	sp      *spec
	crowd   *crowd
	id      string
	pending []wireQuestion
	// applied counts answers the server recorded; answers keeps every
	// answer sent, for the churn check.
	applied   int
	answers   []answered
	predicate string
	failed    bool
}

// record is one request as the generator saw it. Latency counts from due,
// the time the request was scheduled to go out; sent-due is how late the
// generator was. waited marks requests a worker sat idle waiting for, whose
// lateness is the generator's own.
type record struct {
	kind            reqKind
	due, sent, done time.Time
	ok              bool
	waited          bool
	n               int
	reqID           string
	s               *session
	minted, retired int
}

type event struct {
	due  time.Time
	kind reqKind
	s    *session
	d    *delta
}

type eventHeap []*event

func (h eventHeap) Len() int           { return len(h) }
func (h eventHeap) Less(i, j int) bool { return h[i].due.Before(h[j].due) }
func (h eventHeap) Swap(i, j int)      { h[i], h[j] = h[j], h[i] }
func (h *eventHeap) Push(x any)        { *h = append(*h, x.(*event)) }
func (h *eventHeap) Pop() any {
	old := *h
	ev := old[len(old)-1]
	*h = old[:len(old)-1]
	return ev
}

// engine plays a workload against one server with w.clients workers, each
// a goroutine sending one request at a time over its own connection.
type engine struct {
	w     *workload
	conns []*clientConn
	rng   *rand.Rand

	mu       sync.Mutex
	q        eventHeap
	inflight int
	wake     chan struct{}
	finished chan struct{}
	closed   bool
	records  []record
	sessions []*session
	errs     []string
	reqSeq   uint64

	// t0 and tEnd bound the timed window; onEnd runs once when it closes.
	t0, tEnd time.Time
	onEnd    func()
	endOnce  sync.Once

	// Closed loop: the next spec of the pass and whole passes played.
	next, passes int
	seconds      time.Duration
}

func newEngine(w *workload, addr string, seed int64, seconds time.Duration) *engine {
	e := &engine{
		w: w, seconds: seconds,
		rng:      rand.New(rand.NewSource(seed ^ 0x5eed)),
		wake:     make(chan struct{}, w.clients),
		finished: make(chan struct{}),
	}
	for i := 0; i < w.clients; i++ {
		e.conns = append(e.conns, &clientConn{addr: addr})
	}
	return e
}

// clientConn is one worker's keep-alive HTTP/1.1 connection. The worker
// writes each request and reads its reply on its own goroutine: no
// transport goroutines sit between the generator and the socket, so the
// generator adds as few hand-offs as it can to what it measures.
type clientConn struct {
	addr string
	c    net.Conn
	br   *bufio.Reader
	bw   *bufio.Writer
}

// roundTrip sends one request and returns the reply's status and body.
func (cn *clientConn) roundTrip(method, path string, body []byte, reqID string) (int, []byte, error) {
	if cn.c == nil {
		c, err := net.DialTimeout("tcp", cn.addr, 10*time.Second)
		if err != nil {
			return 0, nil, err
		}
		cn.c, cn.br, cn.bw = c, bufio.NewReader(c), bufio.NewWriter(c)
	}
	if err := cn.c.SetDeadline(time.Now().Add(time.Minute)); err != nil {
		cn.close()
		return 0, nil, err
	}
	fmt.Fprintf(cn.bw, "%s %s HTTP/1.1\r\nHost: %s\r\n", method, path, cn.addr)
	if reqID != "" {
		fmt.Fprintf(cn.bw, "X-Request-ID: %s\r\n", reqID)
	}
	if body != nil {
		fmt.Fprintf(cn.bw, "Content-Type: application/json\r\nContent-Length: %d\r\n", len(body))
	}
	cn.bw.WriteString("\r\n")
	cn.bw.Write(body)
	if err := cn.bw.Flush(); err != nil {
		cn.close()
		return 0, nil, err
	}
	resp, err := http.ReadResponse(cn.br, &http.Request{Method: method})
	if err != nil {
		cn.close()
		return 0, nil, err
	}
	data, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil || resp.Close {
		cn.close()
	}
	return resp.StatusCode, data, err
}

func (cn *clientConn) close() {
	if cn.c != nil {
		cn.c.Close()
		cn.c = nil
	}
}

// warmConnections opens every worker's connection before timing starts.
func (e *engine) warmConnections() error {
	var wg sync.WaitGroup
	errs := make(chan error, e.w.clients)
	for _, cn := range e.conns {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < 20; j++ {
				if err := call(cn, http.MethodGet, "/healthz", nil, http.StatusOK, nil, ""); err != nil {
					errs <- err
					return
				}
			}
		}()
	}
	wg.Wait()
	close(errs)
	return <-errs
}

// run plays the workload: the open loop schedules every arrival and delta of
// the window up front and drains the sessions still open when it closes; the
// closed loop plays whole passes over the spec list until seconds have
// passed. It returns when every session has finished.
func (e *engine) run(onEnd func()) {
	e.onEnd = onEnd
	// One record per request, sized up front (a session sends about 15
	// requests): growing the log by doubling would put copy spikes into the
	// process's peak memory at run-dependent moments.
	capacity := 4096
	if e.w.openLoop {
		capacity += int(24 * e.w.sessionRate * e.seconds.Seconds())
	}
	e.records = make([]record, 0, capacity)
	e.t0 = time.Now()
	if e.w.openLoop {
		e.tEnd = e.t0.Add(e.seconds)
		order := e.rng.Perm(len(e.w.specs))
		at := e.t0
		for i := 0; ; i++ {
			at = at.Add(time.Duration(e.rng.ExpFloat64() / e.w.sessionRate * float64(time.Second)))
			if !at.Before(e.tEnd) {
				break
			}
			if i%len(order) == 0 && i > 0 {
				order = e.rng.Perm(len(e.w.specs))
			}
			sp := e.w.specs[order[i%len(order)]]
			s := &session{sp: sp, crowd: newCrowd(sp, e.rng)}
			heap.Push(&e.q, &event{due: at, kind: reqCreate, s: s})
		}
		if e.w.ingestRate > 0 {
			rows := rand.New(rand.NewSource(deltaSeed))
			gap := time.Duration(float64(time.Second) / e.w.ingestRate)
			for i := 0; ; i++ {
				at := e.t0.Add(gap/2 + time.Duration(i)*gap)
				if !at.Before(e.tEnd) {
					break
				}
				d := newDelta(e.w.ingest[i%len(e.w.ingest)], rows)
				heap.Push(&e.q, &event{due: at, kind: reqIngest, d: &d})
			}
		}
		timer := time.AfterFunc(e.seconds, e.endWindow)
		defer timer.Stop()
	} else {
		e.startNext(e.t0)
	}
	var wg sync.WaitGroup
	for _, cn := range e.conns {
		wg.Add(1)
		go func() {
			defer wg.Done()
			defer cn.close()
			for {
				ev, waited := e.pop()
				if ev == nil {
					return
				}
				e.do(cn, ev, waited)
			}
		}()
	}
	wg.Wait()
	e.endWindow()
}

func (e *engine) endWindow() {
	e.endOnce.Do(func() {
		e.mu.Lock()
		if e.tEnd.IsZero() {
			e.tEnd = time.Now()
		}
		e.mu.Unlock()
		if e.onEnd != nil {
			e.onEnd()
		}
	})
}

// startNext opens the closed loop's next session, or ends the run once a
// whole pass is done and seconds have passed. Callers hold e.mu (or run
// before the workers start).
func (e *engine) startNext(now time.Time) {
	if e.next == len(e.w.specs) {
		e.next = 0
		e.passes++
		if now.Sub(e.t0) >= e.seconds {
			e.tEnd = now
			return
		}
	}
	sp := e.w.specs[e.next]
	e.next++
	s := &session{sp: sp, crowd: newCrowd(sp, e.rng)}
	heap.Push(&e.q, &event{due: now, kind: reqCreate, s: s})
}

// pop hands a worker the earliest event once it is due; nil means the run
// is over. waited reports that the worker idled until the event fell due.
func (e *engine) pop() (*event, bool) {
	waited := false
	for {
		e.mu.Lock()
		if e.closed {
			e.mu.Unlock()
			return nil, false
		}
		if len(e.q) == 0 {
			if e.inflight == 0 {
				e.closed = true
				close(e.finished)
				e.mu.Unlock()
				return nil, false
			}
			e.mu.Unlock()
			select {
			case <-e.wake:
			case <-e.finished:
			}
			continue
		}
		wait := time.Until(e.q[0].due)
		if wait <= 0 {
			ev := heap.Pop(&e.q).(*event)
			e.inflight++
			e.mu.Unlock()
			return ev, waited
		}
		e.mu.Unlock()
		waited = true
		t := time.NewTimer(wait)
		select {
		case <-t.C:
		case <-e.wake:
		case <-e.finished:
		}
		t.Stop()
	}
}

// push schedules a follow-up event and wakes an idle worker.
func (e *engine) push(ev *event) {
	heap.Push(&e.q, ev)
	select {
	case e.wake <- struct{}{}:
	default:
	}
}

// do sends one request and schedules what follows it.
func (e *engine) do(cn *clientConn, ev *event, waited bool) {
	s := ev.s
	rec := record{kind: ev.kind, due: ev.due, waited: waited, s: s}
	e.mu.Lock()
	e.reqSeq++
	rec.reqID = fmt.Sprintf("%016x", e.reqSeq)
	e.mu.Unlock()
	rec.sent = time.Now()
	var err error
	var next reqKind = -1
	switch ev.kind {
	case reqCreate:
		var info struct {
			ID string `json:"id"`
		}
		err = call(cn, http.MethodPost, "/sessions", s.sp.params(), http.StatusCreated, &info, rec.reqID)
		s.id = info.ID
		next = reqQuestions
	case reqQuestions:
		var qr questionsReply
		err = call(cn, http.MethodGet, fmt.Sprintf("/sessions/%s/questions?k=%d", s.id, s.sp.k), nil, http.StatusOK, &qr, rec.reqID)
		rec.n = len(qr.Questions)
		s.pending = qr.Questions
		next = reqAnswers
		if qr.Done {
			next = reqPredicate
		}
	case reqAnswers:
		var body struct {
			Answers []service.Answer `json:"answers"`
		}
		for _, q := range s.pending {
			a := s.crowd.answer(ji.QuestionRef{RIndex: q.R, PIndex: q.P}, q.RTuple, q.PTuple)
			body.Answers = append(body.Answers, a)
			s.answers = append(s.answers, answered{rt: q.RTuple, pt: q.PTuple, positive: a.Positive})
		}
		var res service.AnswerResult
		err = call(cn, http.MethodPost, fmt.Sprintf("/sessions/%s/answers", s.id), body, http.StatusOK, &res, rec.reqID)
		rec.n = res.Applied
		s.applied += res.Applied
		next = reqQuestions
	case reqPredicate:
		var p service.PredicateInfo
		err = call(cn, http.MethodGet, fmt.Sprintf("/sessions/%s/predicate", s.id), nil, http.StatusOK, &p, rec.reqID)
		s.predicate = p.Predicate
		next = reqDelete
	case reqDelete:
		err = call(cn, http.MethodDelete, "/sessions/"+s.id, nil, http.StatusNoContent, nil, rec.reqID)
	case reqIngest:
		body := map[string][][]string{}
		if len(ev.d.insertR) > 0 {
			body["insert_r"] = ev.d.insertR
		}
		if len(ev.d.insertP) > 0 {
			body["insert_p"] = ev.d.insertP
		}
		var res service.IngestResult
		err = call(cn, http.MethodPost, "/instances/"+ev.d.in.def.name+"/rows", body, http.StatusOK, &res, rec.reqID)
		rec.minted, rec.retired = res.ClassesMinted, res.ClassesRetired
	}
	rec.done = time.Now()
	rec.ok = err == nil

	e.mu.Lock()
	defer e.mu.Unlock()
	e.records = append(e.records, rec)
	e.inflight--
	switch {
	case err != nil:
		if len(e.errs) < 5 {
			e.errs = append(e.errs, fmt.Sprintf("%s: %v", kindNames[ev.kind], err))
		}
		if s != nil {
			s.failed = true
			e.sessions = append(e.sessions, s)
			if !e.w.openLoop {
				e.startNext(rec.done)
			}
		}
	case next >= 0:
		e.push(&event{due: rec.done, kind: next, s: s})
	case s != nil:
		e.sessions = append(e.sessions, s)
		if !e.w.openLoop {
			e.startNext(rec.done)
		}
	}
	if len(e.q) > 0 {
		select {
		case e.wake <- struct{}{}:
		default:
		}
	}
}

// call sends one JSON request and decodes a reply with the wanted status.
func call(cn *clientConn, method, path string, body any, want int, out any, reqID string) error {
	var in []byte
	if body != nil {
		var err error
		if in, err = json.Marshal(body); err != nil {
			return err
		}
	}
	status, data, err := cn.roundTrip(method, path, in, reqID)
	if err != nil {
		return fmt.Errorf("%s %s: %w", method, path, err)
	}
	if status != want {
		return fmt.Errorf("%s %s: status %d: %s", method, path, status, strings.TrimSpace(string(data)))
	}
	if out != nil {
		if err := json.Unmarshal(data, out); err != nil {
			return fmt.Errorf("%s %s: %w", method, path, err)
		}
	}
	return nil
}

// inWindow reports whether a request was due inside the timed window.
func (e *engine) inWindow(r *record) bool {
	return !r.due.Before(e.t0) && !r.due.After(e.tEnd)
}

// windowSeconds is the timed window's length.
func (e *engine) windowSeconds() float64 { return e.tEnd.Sub(e.t0).Seconds() }

// latencies returns the window's latencies of one request kind in ms, from
// due to reply.
func (e *engine) latencies(kind reqKind) []float64 {
	var out []float64
	for i := range e.records {
		r := &e.records[i]
		if r.kind == kind && r.ok && e.inWindow(r) {
			out = append(out, ms(r.done.Sub(r.due)))
		}
	}
	return out
}

// sessionMedian is the median over the window's completed sessions of each
// session's mean latency for one request kind, in ms: what a typical
// requester waited per request. Sessions are the unit a crowd platform
// serves, and the median over them stays put when a few sessions hit a
// stall or a costly lookahead.
func (e *engine) sessionMedian(kind reqKind) float64 {
	total := map[*session]float64{}
	count := map[*session]int{}
	for i := range e.records {
		r := &e.records[i]
		if r.kind == kind && r.ok && r.s != nil && !r.s.failed && e.inWindow(r) {
			total[r.s] += ms(r.done.Sub(r.due))
			count[r.s]++
		}
	}
	var means []float64
	for s, t := range total {
		means = append(means, t/float64(count[s]))
	}
	return quantile(means, 0.5)
}

// questionsServed counts the questions handed out by requests due in the
// window.
func (e *engine) questionsServed() int {
	n := 0
	for i := range e.records {
		r := &e.records[i]
		if r.kind == reqQuestions && r.ok && e.inWindow(r) {
			n += r.n
		}
	}
	return n
}

// lateness returns p99 of sent-due over the window, for every request and
// for requests a worker idled waiting for (the generator's own lag).
func (e *engine) lateness() (all, gen float64) {
	var a, g []float64
	for i := range e.records {
		r := &e.records[i]
		if !e.inWindow(r) {
			continue
		}
		l := ms(r.sent.Sub(r.due))
		a = append(a, l)
		if r.waited {
			g = append(g, l)
		}
	}
	return quantile(a, 0.99), quantile(g, 0.99)
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// quantile is the linearly interpolated q-quantile of xs (NaN when empty).
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return s[lo] + (s[hi]-s[lo])*(pos-float64(lo))
}
