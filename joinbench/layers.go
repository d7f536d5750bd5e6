package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"net/http"
	"os"
	"path/filepath"
	"runtime/metrics"
	"runtime/pprof"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"

	ji "repro"
	"repro/internal/obs"
	"repro/internal/service"
	"repro/internal/store"
)

// layerMetric is one per-layer metric as BENCHMARK.json lists it.
type layerMetric struct{ name, unit, better string }

// perLayer are the per-layer metrics every traced run reports, on every
// workload; a layer a workload does not exercise reads 0 in its counts and
// shares. Latencies of layers only some workloads reach (ingest, page-in,
// store reads and scans, the soft and semijoin fetch paths) are in the
// per-layer table instead.
var perLayer = []layerMetric{
	{"http.transport_us_p50", "us", "lower"},
	{"http.handler_self_us_p50", "us", "lower"},
	{"http.bytes_per_question", "B", "lower"},
	{"http.json_cpu_share", "ratio", "lower"},
	{"gate.queue_depth_max", "count", "lower"},
	{"gate.shed", "count", "lower"},
	{"breaker.trips", "count", "lower"},
	{"manager.questions_us_p50", "us", "lower"},
	{"manager.questions_us_p99", "us", "lower"},
	{"manager.answers_us_p50", "us", "lower"},
	{"manager.answers_us_p99", "us", "lower"},
	{"manager.self_us_mean", "us", "lower"},
	{"manager.migrations", "count", "lower"},
	{"policy.hit_ratio", "ratio", "higher"},
	{"policy.pageins", "count", "lower"},
	{"policy.evictions", "count", "lower"},
	{"policy.invalidated", "count", "lower"},
	{"policy.migrated", "count", "higher"},
	{"policy.bytes", "B", "lower"},
	{"strategy.runs", "count", "lower"},
	{"strategy.cpu_share", "ratio", "lower"},
	{"inference.answer_us_p50", "us", "lower"},
	{"inference.cpu_share", "ratio", "lower"},
	{"semijoin.cpu_share", "ratio", "lower"},
	{"soft.commits", "count", "lower"},
	{"soft.retractions", "count", "lower"},
	{"soft.cpu_share", "ratio", "lower"},
	{"store.persist_us_p50", "us", "lower"},
	{"store.persist_us_p99", "us", "lower"},
	{"store.put_us_p50", "us", "lower"},
	{"store.puts_per_answer", "count", "lower"},
	{"store.bytes_per_answer", "B", "lower"},
	{"store.syncs", "count", "lower"},
	{"store.compactions", "count", "lower"},
	{"store.persist_queue_max", "count", "lower"},
	{"registry.load_s", "s", "lower"},
	{"registry.classes_minted", "count", "lower"},
	{"registry.classes_retired", "count", "lower"},
	{"product.cpu_share", "ratio", "lower"},
	{"runtime.gc_cpu_share", "ratio", "lower"},
	{"runtime.alloc_bytes_per_question", "B", "lower"},
	{"trace.overhead_question_session_p50", "ratio", "lower"},
	{"trace.overhead_cpu_per_question", "ratio", "lower"},
}

type handlerRec struct {
	id      string
	dur     time.Duration
	in, out int64
}

type kvRec struct {
	op      string
	session string
	start   time.Time
	dur     time.Duration
	bytes   int
}

// tracer is the traced run's instrumentation, all of it outside the
// program: a wrapper around the handler and one around the store, the
// service's own spans (every one kept, streamed to a file), its /metrics
// families and counters read at the window's edges, a gauge sampler, a CPU
// profile of the timed window and runtime/metrics deltas.
type tracer struct {
	dir      string
	spans    *os.File
	spanBuf  *bufio.Writer
	spanSink *syncWriter
	cpu      *os.File

	mu       sync.Mutex
	handlers []handlerRec
	kvops    []kvRec
	syncs    int

	stopSampler, samplerDone chan struct{}
	gaugeMax                 map[string]float64

	before, after snapshot
	cpu0, cpu1    time.Duration
}

// syncWriter serializes writes to the span file.
type syncWriter struct {
	mu sync.Mutex
	w  *bufio.Writer
}

func (s *syncWriter) Write(p []byte) (int, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.w.Write(p)
}

func newTracer(dir string) (*tracer, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	f, err := os.Create(filepath.Join(dir, "spans.jsonl"))
	if err != nil {
		return nil, err
	}
	t := &tracer{dir: dir, spans: f, spanBuf: bufio.NewWriterSize(f, 1<<16), gaugeMax: map[string]float64{}}
	t.spanSink = &syncWriter{w: t.spanBuf}
	return t, nil
}

func (t *tracer) close() {
	t.spanSink.mu.Lock()
	_ = t.spanBuf.Flush()
	t.spanSink.mu.Unlock()
	t.spans.Close()
}

// countingWriter counts response body bytes.
type countingWriter struct {
	http.ResponseWriter
	n int64
}

func (c *countingWriter) Write(p []byte) (int, error) {
	n, err := c.ResponseWriter.Write(p)
	c.n += int64(n)
	return n, err
}

func (t *tracer) wrapHandler(h http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		cw := &countingWriter{ResponseWriter: w}
		start := time.Now()
		h.ServeHTTP(cw, r)
		rec := handlerRec{id: r.Header.Get(obs.RequestIDHeader), dur: time.Since(start), in: r.ContentLength, out: cw.n}
		t.mu.Lock()
		t.handlers = append(t.handlers, rec)
		t.mu.Unlock()
	})
}

// timedKV times every store operation and attributes session writes to
// their session.
type timedKV struct {
	store.KV
	t *tracer
}

func (t *tracer) wrapKV(kv store.KV) store.KV { return timedKV{KV: kv, t: t} }

func (k timedKV) record(op string, key []byte, start time.Time, n int) {
	rec := kvRec{op: op, start: start, dur: time.Since(start), bytes: n}
	if bytes.HasPrefix(key, store.SessionPrefix()) {
		rec.session, _ = store.SessionID(key)
	}
	k.t.mu.Lock()
	k.t.kvops = append(k.t.kvops, rec)
	k.t.mu.Unlock()
}

func (k timedKV) Get(key []byte) ([]byte, bool, error) {
	start := time.Now()
	v, ok, err := k.KV.Get(key)
	k.record("get", key, start, len(v))
	return v, ok, err
}

func (k timedKV) Put(key, value []byte) error {
	start := time.Now()
	err := k.KV.Put(key, value)
	k.record("put", key, start, len(key)+len(value))
	return err
}

func (k timedKV) Delete(key []byte) error {
	start := time.Now()
	err := k.KV.Delete(key)
	k.record("delete", key, start, len(key))
	return err
}

func (k timedKV) Scan(prefix []byte, fn func(key, value []byte) bool) error {
	start := time.Now()
	err := k.KV.Scan(prefix, fn)
	k.record("scan", prefix, start, 0)
	return err
}

func (k timedKV) Batch(ops []store.Op) error {
	start := time.Now()
	err := k.KV.Batch(ops)
	n := 0
	for _, op := range ops {
		n += len(op.Key) + len(op.Value)
	}
	var key []byte
	if len(ops) > 0 {
		key = ops[0].Key
	}
	k.record("batch", key, start, n)
	return err
}

func (k timedKV) Sync() error {
	k.t.mu.Lock()
	k.t.syncs++
	k.t.mu.Unlock()
	return k.KV.Sync()
}

// snapshot is the counters read at one edge of the traced window.
type snapshot struct {
	seg      map[string]obs.HistogramSnapshot
	pc       ji.PolicyCacheStats
	kv       store.Stats
	mgr      service.Metrics
	trips    int64
	shed     float64
	rt       []metrics.Sample
	kvops    int
	handlers int
}

var runtimeSamples = []string{
	"/cpu/classes/gc/total:cpu-seconds",
	"/gc/heap/allocs:bytes",
	"/sched/pauses/total/gc:seconds",
}

func (t *tracer) snap(s *server) snapshot {
	seg := s.bundle.Metrics.HistogramVec("question_segment_seconds", "", "segment", nil)
	sn := snapshot{
		seg: map[string]obs.HistogramSnapshot{
			"strategy": seg.With("strategy").Snapshot(),
			"cache":    seg.With("cache").Snapshot(),
			"store":    seg.With("store").Snapshot(),
			"pagein":   s.bundle.Metrics.Histogram("policy_pagein_seconds", "", nil).Snapshot(),
		},
		kv:  s.kv.Stats(),
		mgr: s.mgr.Metrics(),
	}
	if s.pc != nil {
		sn.pc = s.pc.Stats()
	}
	sn.trips, _ = s.breaker.Counters()
	sn.shed = promSum(s.bundle.Metrics, "admission_shed_total")["admission_shed_total"]
	sn.rt = make([]metrics.Sample, len(runtimeSamples))
	for i, name := range runtimeSamples {
		sn.rt[i].Name = name
	}
	metrics.Read(sn.rt)
	t.mu.Lock()
	sn.kvops, sn.handlers = len(t.kvops), len(t.handlers)
	t.mu.Unlock()
	return sn
}

// promSum renders the registry's Prometheus exposition and sums each
// family's samples (over label values) among the wanted families.
func promSum(r *obs.Registry, families ...string) map[string]float64 {
	var buf bytes.Buffer
	_ = r.WritePrometheus(&buf)
	out := map[string]float64{}
	for _, line := range strings.Split(buf.String(), "\n") {
		if line == "" || line[0] == '#' {
			continue
		}
		name, val, ok := strings.Cut(line, " ")
		if !ok {
			continue
		}
		if i := strings.IndexByte(name, '{'); i >= 0 {
			name = name[:i]
		}
		for _, f := range families {
			if name == f {
				v, err := strconv.ParseFloat(strings.TrimSpace(val), 64)
				if err == nil {
					out[f] += v
				}
			}
		}
	}
	return out
}

// begin starts the window's instruments: counters, the gauge sampler and
// the CPU profile.
func (t *tracer) begin(s *server) {
	t.before = t.snap(s)
	t.stopSampler, t.samplerDone = make(chan struct{}), make(chan struct{})
	go func() {
		defer close(t.samplerDone)
		tick := time.NewTicker(10 * time.Millisecond)
		defer tick.Stop()
		for {
			select {
			case <-t.stopSampler:
				return
			case <-tick.C:
			}
			for name, v := range promSum(s.bundle.Metrics, "admission_queue_depth", "persist_queue_depth") {
				if v > t.gaugeMax[name] {
					t.gaugeMax[name] = v
				}
			}
		}
	}()
	var err error
	if t.cpu, err = os.Create(filepath.Join(t.dir, "cpu.pprof")); err == nil {
		if err := pprof.StartCPUProfile(t.cpu); err != nil {
			t.cpu.Close()
			t.cpu = nil
		}
	}
	t.cpu0 = cpuTime()
}

// endWindow stops the CPU profile when the timed window closes.
func (t *tracer) endWindow() {
	t.cpu1 = cpuTime()
	if t.cpu != nil {
		pprof.StopCPUProfile()
		t.cpu.Close()
	}
}

// end reads the counters once the run has drained.
func (t *tracer) end(s *server) {
	close(t.stopSampler)
	<-t.samplerDone
	t.after = t.snap(s)
	if f, err := os.Create(filepath.Join(t.dir, "metrics.prom")); err == nil {
		_ = s.bundle.Metrics.WritePrometheus(f)
		f.Close()
	}
	t.spanSink.mu.Lock()
	_ = t.spanBuf.Flush()
	t.spanSink.mu.Unlock()
}

func (t *tracer) writeTable(table string) error {
	return os.WriteFile(filepath.Join(t.dir, "layers.txt"), []byte(table), 0o644)
}

// histDelta subtracts two snapshots of one histogram.
func histDelta(a, b obs.HistogramSnapshot) obs.HistogramSnapshot {
	d := obs.HistogramSnapshot{Bounds: b.Bounds, Counts: make([]int64, len(b.Counts)), Count: b.Count - a.Count, Sum: b.Sum - a.Sum}
	for i := range b.Counts {
		d.Counts[i] = b.Counts[i]
		if i < len(a.Counts) {
			d.Counts[i] -= a.Counts[i]
		}
	}
	return d
}

func histQuantile(h obs.HistogramSnapshot, q float64) float64 {
	v, ok := h.Quantile(q)
	if !ok {
		return math.NaN()
	}
	return v
}

// layerOf names the layer a CPU sample's stack (innermost first) belongs
// to: the innermost frame of a known package decides, so helpers
// (bitsets, predicates, sorting, the allocator) count toward the layer that
// called them. Stacks of the load generator count as "generator".
func layerOf(stack []string) string {
	for _, fn := range stack {
		if strings.HasPrefix(fn, "main.(*engine)") || strings.HasPrefix(fn, "main.(*crowd)") ||
			strings.HasPrefix(fn, "net/http.(*persistConn)") || strings.HasPrefix(fn, "net/http.(*Transport)") {
			return "generator"
		}
	}
	for _, fn := range stack {
		switch {
		case strings.HasPrefix(fn, "encoding/json."):
			return "json"
		case strings.HasPrefix(fn, "repro/internal/strategy."):
			return "strategy"
		case strings.HasPrefix(fn, "repro/internal/inference."):
			return "inference"
		case strings.HasPrefix(fn, "repro/internal/semijoin."):
			return "semijoin"
		case strings.HasPrefix(fn, "repro/internal/belief."),
			strings.HasPrefix(fn, "repro.") && (strings.Contains(fn, "oft") || strings.Contains(fn, "Vote") || strings.Contains(fn, "etract")):
			return "soft"
		case strings.HasPrefix(fn, "repro/internal/store."):
			return "store"
		case strings.HasPrefix(fn, "repro/internal/policy."), strings.HasPrefix(fn, "repro.(*PolicyCache)"):
			return "policy"
		case strings.HasPrefix(fn, "repro/internal/product."), strings.HasPrefix(fn, "repro/internal/relation."):
			return "product"
		case strings.HasPrefix(fn, "repro/internal/service."):
			return "manager"
		case strings.HasPrefix(fn, "repro/internal/obs."):
			return "obs"
		case strings.HasPrefix(fn, "repro."):
			return "session"
		case strings.HasPrefix(fn, "net/http."), strings.HasPrefix(fn, "net."), strings.HasPrefix(fn, "internal/poll."):
			return "http"
		case strings.HasPrefix(fn, "runtime.gcBgMarkWorker"), strings.HasPrefix(fn, "runtime.bgsweep"), strings.HasPrefix(fn, "runtime.bgscavenge"):
			return "runtime.gc"
		}
	}
	return "other"
}

type spanRec struct {
	Trace    string        `json:"trace"`
	Name     string        `json:"name"`
	Session  string        `json:"session"`
	Start    time.Time     `json:"start"`
	Duration time.Duration `json:"duration_ns"`
}

func us(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }

// layers computes the per-layer metrics of the traced run o (before and
// after are the untraced runs of the same seed on either side of it) and
// renders the per-layer table. hold reports whether the workload's
// predictions held.
func (t *tracer) layers(w *workload, s *server, o, before, after *outcome) (_ map[string]metric, _ string, hold bool) {
	e := o.e
	m := map[string]float64{}
	table := map[string]float64{}

	// Spans, joined to requests by request id.
	spans := map[string]spanRec{}
	if data, err := os.ReadFile(t.spans.Name()); err == nil {
		for _, line := range bytes.Split(data, []byte("\n")) {
			var sp spanRec
			if len(line) == 0 || json.Unmarshal(line, &sp) != nil {
				continue
			}
			if sp.Name == "session.questions" || sp.Name == "session.answers" {
				spans[sp.Trace] = sp
			}
		}
	}
	t.mu.Lock()
	handlers := map[string]handlerRec{}
	for _, h := range t.handlers[t.before.handlers:] {
		handlers[h.id] = h
	}
	kvops := append([]kvRec(nil), t.kvops[t.before.kvops:t.after.kvops]...)
	syncs := t.syncs
	t.mu.Unlock()

	// Session-key puts per session, to take the persist out of answer spans.
	puts := map[string][]kvRec{}
	for _, op := range kvops {
		if op.op == "put" && op.session != "" {
			puts[op.session] = append(puts[op.session], op)
		}
	}
	var transport, handlerSelf, mgrQ, mgrA, engine, softA, semiQ, stratQ, ingestH []float64
	var qBytes int64
	var qSpanSum time.Duration
	specQ := map[string]time.Duration{}
	for i := range e.records {
		r := &e.records[i]
		h, ok := handlers[r.reqID]
		if !ok || !r.ok {
			continue
		}
		transport = append(transport, us(r.done.Sub(r.sent)-h.dur))
		if r.kind == reqIngest {
			ingestH = append(ingestH, us(h.dur))
		}
		sp, hasSpan := spans[r.reqID]
		if !hasSpan {
			continue
		}
		handlerSelf = append(handlerSelf, us(h.dur-sp.Duration))
		switch r.kind {
		case reqQuestions:
			qBytes += h.in + h.out
			qSpanSum += sp.Duration
			specQ[r.s.sp.name] += sp.Duration
			mgrQ = append(mgrQ, us(sp.Duration))
			if r.s.sp.semijoin {
				semiQ = append(semiQ, us(sp.Duration))
			} else if w.policyBytes == 0 {
				stratQ = append(stratQ, us(sp.Duration))
			}
		case reqAnswers:
			mgrA = append(mgrA, us(sp.Duration))
			self := sp.Duration
			for _, p := range puts[sp.Session] {
				if !p.start.Before(sp.Start) && !p.start.After(sp.Start.Add(sp.Duration)) {
					self -= p.dur
				}
			}
			switch {
			case r.s.sp.soft:
				softA = append(softA, us(sp.Duration))
			case !r.s.sp.semijoin:
				engine = append(engine, us(self))
			}
		}
	}
	questions := 0
	for i := range e.records {
		if r := &e.records[i]; r.kind == reqQuestions && r.ok {
			questions += r.n
		}
	}
	m["http.transport_us_p50"] = quantile(transport, 0.5)
	m["http.handler_self_us_p50"] = quantile(handlerSelf, 0.5)
	m["http.bytes_per_question"] = float64(qBytes) / float64(max(questions, 1))
	m["manager.questions_us_p50"] = quantile(mgrQ, 0.5)
	m["manager.questions_us_p99"] = quantile(mgrQ, 0.99)
	m["manager.answers_us_p50"] = quantile(mgrA, 0.5)
	m["manager.answers_us_p99"] = quantile(mgrA, 0.99)
	b, a := t.before, t.after
	segStrategy := histDelta(b.seg["strategy"], a.seg["strategy"])
	segCache := histDelta(b.seg["cache"], a.seg["cache"])
	segStore := histDelta(b.seg["store"], a.seg["store"])
	pagein := histDelta(b.seg["pagein"], a.seg["pagein"])
	m["manager.self_us_mean"] = (us(qSpanSum) - (segStrategy.Sum+segCache.Sum)*1e6) / float64(max(len(mgrQ), 1))
	m["manager.migrations"] = float64(a.mgr.SessionsMigrated - b.mgr.SessionsMigrated)
	m["inference.answer_us_p50"] = quantile(engine, 0.5)

	m["gate.queue_depth_max"] = t.gaugeMax["admission_queue_depth"]
	m["gate.shed"] = a.shed - b.shed
	m["breaker.trips"] = float64(a.trips - b.trips)

	// Every lookup is an LRU hit, a store-tier hit or a miss.
	served := float64((a.pc.Hits + a.pc.Tier2Hits) - (b.pc.Hits + b.pc.Tier2Hits))
	m["policy.hit_ratio"] = 0
	if lookups := served + float64(a.pc.Misses-b.pc.Misses); lookups > 0 {
		m["policy.hit_ratio"] = served / lookups
	}
	m["policy.pageins"] = float64(a.pc.PageIns - b.pc.PageIns)
	m["policy.evictions"] = float64(a.pc.Evictions - b.pc.Evictions)
	m["policy.invalidated"] = float64(a.pc.Invalidated - b.pc.Invalidated)
	m["policy.migrated"] = float64(a.pc.Migrated - b.pc.Migrated)
	m["policy.bytes"] = float64(a.pc.Bytes)
	m["strategy.runs"] = float64(segStrategy.Count)

	m["soft.commits"], m["soft.retractions"] = 0, 0
	if a.mgr.Crowd != nil {
		m["soft.commits"] = float64(a.mgr.Crowd.Commits)
		m["soft.retractions"] = float64(a.mgr.Crowd.Retractions)
		if b.mgr.Crowd != nil {
			m["soft.commits"] -= float64(b.mgr.Crowd.Commits)
			m["soft.retractions"] -= float64(b.mgr.Crowd.Retractions)
		}
	}

	var persist, putAll, getAll, scanAll []float64
	putBytes := 0
	for _, op := range kvops {
		switch op.op {
		case "put":
			putAll = append(putAll, us(op.dur))
			putBytes += op.bytes
			if op.session != "" {
				persist = append(persist, us(op.dur))
			}
		case "get":
			getAll = append(getAll, us(op.dur))
		case "scan":
			scanAll = append(scanAll, us(op.dur))
		}
	}
	answers := float64(max(a.mgr.AnswersApplied-b.mgr.AnswersApplied, 1))
	m["store.persist_us_p50"] = quantile(persist, 0.5)
	m["store.persist_us_p99"] = quantile(persist, 0.99)
	m["store.put_us_p50"] = quantile(putAll, 0.5)
	m["store.puts_per_answer"] = float64(len(putAll)) / answers
	m["store.bytes_per_answer"] = float64(putBytes) / answers
	m["store.syncs"] = float64(syncs)
	m["store.compactions"] = float64(a.kv.Compactions - b.kv.Compactions)
	m["store.persist_queue_max"] = t.gaugeMax["persist_queue_depth"]

	m["registry.load_s"] = s.regLoad.Seconds()
	minted, retired := 0, 0
	for i := range e.records {
		minted += e.records[i].minted
		retired += e.records[i].retired
	}
	m["registry.classes_minted"] = float64(minted)
	m["registry.classes_retired"] = float64(retired)

	// CPU profile of the timed window, split by layer.
	shares := map[string]float64{}
	if stacks, weights, err := profileStacks(filepath.Join(t.dir, "cpu.pprof")); err == nil {
		total := int64(0)
		for i, st := range stacks {
			shares[layerOf(st)] += float64(weights[i])
			total += weights[i]
		}
		for k := range shares {
			shares[k] /= float64(max(total, 1))
		}
	}
	m["http.json_cpu_share"] = shares["json"]
	m["strategy.cpu_share"] = shares["strategy"]
	m["inference.cpu_share"] = shares["inference"]
	m["semijoin.cpu_share"] = shares["semijoin"]
	m["soft.cpu_share"] = shares["soft"]
	m["product.cpu_share"] = shares["product"]

	gcCPU := a.rt[0].Value.Float64() - b.rt[0].Value.Float64()
	m["runtime.gc_cpu_share"] = gcCPU / math.Max((t.cpu1-t.cpu0).Seconds(), 1e-9)
	m["runtime.alloc_bytes_per_question"] = float64(a.rt[1].Value.Uint64()-b.rt[1].Value.Uint64()) / float64(max(questions, 1))

	u1, u2, traced := endToEnd(before, []float64{0}), endToEnd(after, []float64{0}), endToEnd(o, []float64{0})
	overhead := func(name string) float64 {
		return 2*traced[name].Value/(u1[name].Value+u2[name].Value) - 1
	}
	m["trace.overhead_question_session_p50"] = overhead("question_session_p50_ms")
	m["trace.overhead_cpu_per_question"] = overhead("cpu_us_per_question")

	// Table-only figures: latencies of layers some workloads never reach.
	table["policy.fetch_us_p50"] = histQuantile(segCache, 0.5) * 1e6
	table["policy.pagein_us_p50"] = histQuantile(pagein, 0.5) * 1e6
	table["strategy.fetch_ms_p50"] = quantile(stratQ, 0.5) / 1e3
	table["strategy.fetch_ms_max"] = quantile(stratQ, 1) / 1e3
	table["strategy.segment_ms_p50"] = histQuantile(segStrategy, 0.5) * 1e3
	table["semijoin.fetch_ms_p50"] = quantile(semiQ, 0.5) / 1e3
	table["soft.answers_us_p50"] = quantile(softA, 0.5)
	table["store.segment_us_p50"] = histQuantile(segStore, 0.5) * 1e6
	table["store.get_us_p50"] = quantile(getAll, 0.5)
	table["store.scan_us_p50"] = quantile(scanAll, 0.5)
	table["registry.ingest_handler_us_p50"] = quantile(ingestH, 0.5)
	table["runtime.gc_pause_us_max"] = maxPause(b.rt[2].Value.Float64Histogram(), a.rt[2].Value.Float64Histogram()) * 1e6
	for k, v := range shares {
		table["cpu_share."+k] = v
	}
	strategyShare := segStrategy.Sum * 1e6 / us(qSpanSum)
	table["strategy.share_of_question_time"] = strategyShare

	out := map[string]metric{}
	var sb strings.Builder
	fmt.Fprintf(&sb, "per-layer table: workload %s (traced run; %d spans joined, %d store ops)\n", w.name, len(spans), len(kvops))
	for _, lm := range perLayer {
		out[lm.name] = metric{Value: m[lm.name], Unit: lm.unit}
		fmt.Fprintf(&sb, "  %-36s %14.6g %s\n", lm.name, m[lm.name], lm.unit)
	}
	names := make([]string, 0, len(table))
	for k := range table {
		names = append(names, k)
	}
	sort.Strings(names)
	for _, k := range names {
		v := table[k]
		if math.IsNaN(v) {
			fmt.Fprintf(&sb, "  %-36s %14s (no samples on this workload)\n", k, "n/a")
			continue
		}
		fmt.Fprintf(&sb, "  %-36s %14.6g\n", k, v)
	}
	top := ""
	for name, d := range specQ {
		if top == "" || d > specQ[top] || (d == specQ[top] && name < top) {
			top = name
		}
	}
	topWall := float64(specQ[top]) / float64(e.tEnd.Sub(e.t0))
	fmt.Fprintf(&sb, "  largest share of question time: %s, %.3f of the window's wall time\n", top, topWall)

	// The predictions the workloads were designed on; a run that does not
	// confirm them is measuring something else, and is not correct.
	fmt.Fprintln(&sb, "predictions:")
	hold = true
	predict := func(holds bool, format string, args ...any) {
		fmt.Fprintf(&sb, "  "+format+": %v\n", append(args, holds)...)
		hold = hold && holds
	}
	switch w.name {
	case "warm-crowd":
		predict(m["policy.hit_ratio"] >= 0.99 && m["strategy.runs"] < 0.01*float64(questions),
			"policy.hit_ratio >= 0.99 (%.4f) and strategy.runs under 1%% of questions (%.0f of %d)",
			m["policy.hit_ratio"], m["strategy.runs"], questions)
	case "cold-lookahead":
		predict(strategyShare >= 0.9, "strategy segment >= 90%% of question time (%.4f)", strategyShare)
		predict(top == "tpch-join4/L2S" && topWall > 0.5, "tpch-join4/L2S takes most of the wall time (%s, %.3f)", top, topWall)
	case "churn":
		predict(m["policy.invalidated"] > 0 && m["policy.pageins"] > 0 && m["manager.migrations"] > 0,
			"policy.invalidated, policy.pageins and manager.migrations all non-zero (%.0f, %.0f, %.0f)",
			m["policy.invalidated"], m["policy.pageins"], m["manager.migrations"])
	}
	fmt.Fprintf(&sb, "trace overhead against the mean of the untraced runs before and after it: question_session_p50_ms %+.1f%%, cpu_us_per_question %+.1f%%\n",
		100*m["trace.overhead_question_session_p50"], 100*m["trace.overhead_cpu_per_question"])
	return out, sb.String(), hold
}

// maxPause is the upper bound of the highest histogram bucket that gained
// a GC pause between the two reads.
func maxPause(a, b *metrics.Float64Histogram) float64 {
	for i := len(b.Counts) - 1; i >= 0; i-- {
		if b.Counts[i] > a.Counts[i] {
			hi := b.Buckets[i+1]
			if math.IsInf(hi, 1) {
				hi = b.Buckets[i]
			}
			return hi
		}
	}
	return 0
}
