// Command joinbench is the end-to-end benchmark of joinserve. It starts a
// real service.NewHandler server on a loopback listener, wired the way
// cmd/joinserve wires it, plays a seeded crowd against it over HTTP/JSON,
// checks every session's result, and prints every metric by name with its
// unit; the last line of standard output is one JSON object:
//
//	{"correct": true, "attempted": N, "failed": 0, "metrics": {...}}
//
// Usage (from the repository root, through run.sh, which builds it):
//
//	bash joinbench/run.sh --workload warm-crowd --seed 1 --seconds 10 --trace 0
//
// Workloads: warm-crowd (open loop, popular instances, policy cache warm),
// cold-lookahead (closed loop, policy cache off, the paper's TPC-H joins
// under L1S/L2S) and churn (open loop plus a writer posting row deltas,
// policy cache below its working set). See METHOD.json.
//
// --trace 0 reports the end-to-end metrics. --trace 1 runs the workload
// three times with the same seed, untraced, traced and untraced again, and
// reports the per-layer metrics of the traced run plus its overhead against
// the mean of the two untraced ones; it also writes the span file, the CPU
// profile and the per-layer table under .bench_build/joinbench-out/.
//
// A run is correct only when every request and session checked out, the
// generator kept to its schedule (see outcome.valid) and, when traced, the
// workload's predictions held.
//
// --steady N runs the workload N times, seeds 1..N, each in its own
// process, and reports each end-to-end metric's spread against its bound in
// BENCHMARK.json.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"sort"
	"strconv"
	"strings"
	"syscall"
	"time"
)

func main() {
	name := flag.String("workload", "", "workload to run: warm-crowd, cold-lookahead or churn")
	seed := flag.Int64("seed", 1, "workload seed: arrivals, order, lies, deltas")
	seconds := flag.Int("seconds", 10, "length of the timed window in seconds")
	trace := flag.Int("trace", 0, "1 reports the per-layer metrics of a traced run instead of the end-to-end ones")
	steady := flag.Int("steady", 0, "run the workload this many times (seeds 1..N) and report each metric's spread")
	rate := flag.Float64("rate", 0, "override the open-loop session arrival rate per second (capacity probing; 0 keeps the workload's)")
	ingestRate := flag.Float64("ingest-rate", 0, "override churn's row inserts per second (probing; 0 keeps the workload's)")
	flag.Parse()
	if *seconds < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintln(os.Stderr, "joinbench: --seconds must be positive and --trace 0 or 1")
		os.Exit(2)
	}
	if *steady > 0 {
		os.Exit(steadiness(*name, *steady, *seconds))
	}
	if err := run(*name, *seed, time.Duration(*seconds)*time.Second, *trace == 1, *rate, *ingestRate); err != nil {
		fmt.Fprintln(os.Stderr, "joinbench:", err)
		os.Exit(1)
	}
}

// metric is one reported number.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// setups is how many times each untraced run sets the server up; setup_s is
// their median.
const setups = 15

// run plays one workload run; a positive rate or ingestRate replaces an
// open-loop workload's session or insert rate.
func run(name string, seed int64, seconds time.Duration, traced bool, rate, ingestRate float64) error {
	w, err := newWorkload(name, seed)
	if err != nil {
		return err
	}
	if rate > 0 && w.openLoop {
		w.sessionRate = rate
	}
	if ingestRate > 0 && w.ingestRate > 0 {
		w.ingestRate = ingestRate
	}
	root := filepath.Join(".bench_build", "run")
	if err := os.MkdirAll(root, 0o755); err != nil {
		return err
	}
	tmp, err := os.MkdirTemp(root, name+"-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(tmp)
	if err := computeReferences(w); err != nil {
		return err
	}
	fmt.Printf("workload %s seed %d seconds %.0f trace %v specs %d\n", name, seed, seconds.Seconds(), traced, len(w.specs))

	var setupTimes []float64
	var srv *server
	n := setups
	if traced {
		n = 1
	}
	for i := 0; i < n; i++ {
		if srv != nil {
			srv.close()
		}
		// Each set-up starts from a collected heap, so none pays for the
		// garbage of the one before it.
		runtime.GC()
		start := time.Now()
		srv, err = startServer(w, tmp, nil)
		if err != nil {
			return err
		}
		setupTimes = append(setupTimes, time.Since(start).Seconds())
	}
	base, err := play(w, srv, seed, seconds, nil)
	srv.close()
	if err != nil {
		return err
	}
	res := result{Correct: base.ok(), Attempted: base.attempted, Failed: base.failed, Metrics: map[string]metric{}}
	e2e := endToEnd(base, setupTimes)
	report(base, e2e)
	if !traced {
		fmt.Printf("  setup times: min %.4g s, median %.4g s, max %.4g s over %d set-ups\n",
			quantile(setupTimes, 0), median(setupTimes), quantile(setupTimes, 1), len(setupTimes))
		res.Metrics = e2e
		return emit(res)
	}

	out := filepath.Join(".bench_build", "joinbench-out", fmt.Sprintf("%s-seed%d", name, seed))
	tr, err := newTracer(out)
	if err != nil {
		return err
	}
	defer tr.close()
	tsrv, err := startServer(w, tmp, tr)
	if err != nil {
		return err
	}
	traceRun, err := play(w, tsrv, seed, seconds, tr)
	tsrv.close()
	if err != nil {
		return err
	}
	fmt.Println("traced run:")
	report(traceRun, endToEnd(traceRun, []float64{math.NaN()}))
	// A second untraced run after the traced one: the overhead is taken
	// against the mean of the runs on either side, so that it does not
	// count how a process speeds up or slows down from run to run.
	if srv, err = startServer(w, tmp, nil); err != nil {
		return err
	}
	after, err := play(w, srv, seed, seconds, nil)
	srv.close()
	if err != nil {
		return err
	}
	fmt.Println("second untraced run:")
	report(after, endToEnd(after, []float64{math.NaN()}))
	layers, table, hold := tr.layers(w, tsrv, traceRun, base, after)
	if err := tr.writeTable(table); err != nil {
		return err
	}
	fmt.Print(table)
	fmt.Printf("trace files in %s\n", out)
	res.Correct = res.Correct && traceRun.ok() && after.ok() && hold
	res.Attempted += traceRun.attempted + after.attempted
	res.Failed += traceRun.failed + after.failed
	res.Metrics = layers
	return emit(res)
}

// outcome is one played run.
type outcome struct {
	e         *engine
	cpu       time.Duration
	attempted int
	failed    int
	wrong     []string
	completed int
	// interactions is the mean number of answers applied per completed
	// session.
	interactions float64
	// peakRSS is the resident set's high-water mark over the timed window
	// and the drain, in bytes; the whole process's peak on a host that does
	// not let the mark be reset.
	peakRSS float64
}

// maxGeneratorLag is the p99 of the generator's own timer lag (see
// engine.lateness) beyond which a run is invalid: past it the offered load
// no longer follows the schedule, and the generator, not the server, shaped
// the run.
const maxGeneratorLag = 10 // ms

// valid reports whether the generator kept to its schedule.
func (o *outcome) valid() bool {
	_, gen := o.e.lateness()
	return !(gen > maxGeneratorLag)
}

// ok reports whether the run counts: every request and session checked out
// and the run was valid.
func (o *outcome) ok() bool { return o.failed == 0 && o.valid() }

// play runs the workload once against srv and checks every session.
func play(w *workload, srv *server, seed int64, seconds time.Duration, tr *tracer) (*outcome, error) {
	e := newEngine(w, srv.addr, seed, seconds)
	if err := e.warmConnections(); err != nil {
		return nil, err
	}
	o := &outcome{e: e}
	// Start every window from the same heap state: collect what set-up and
	// earlier set-ups left behind and hand it back to the OS, then restart
	// the peak-RSS count so that it covers the window only, not the set-ups
	// or the in-process reference sessions.
	debug.FreeOSMemory()
	peak := resetPeakRSS()
	if tr != nil {
		tr.begin(srv)
	}
	cpu0 := cpuTime()
	e.run(func() {
		o.cpu = cpuTime() - cpu0
		if tr != nil {
			tr.endWindow()
		}
	})
	o.peakRSS = readPeakRSS()
	if !peak {
		var ru syscall.Rusage
		_ = syscall.Getrusage(syscall.RUSAGE_SELF, &ru)
		o.peakRSS = float64(ru.Maxrss) * 1024
		fmt.Println("  note: the peak-RSS mark could not be reset; max_rss_mb is the whole process's peak")
	}
	if tr != nil {
		tr.end(srv)
	}
	for i := range e.records {
		o.attempted++
		if !e.records[i].ok {
			o.failed++
		}
	}
	c := newChecker(w)
	sum := 0
	for _, s := range e.sessions {
		if s.failed {
			continue
		}
		if msg := c.check(s); msg != "" {
			o.failed++
			if len(o.wrong) < 5 {
				o.wrong = append(o.wrong, msg)
			}
			continue
		}
		o.completed++
		sum += s.applied
	}
	if o.completed > 0 {
		o.interactions = float64(sum) / float64(o.completed)
	}
	return o, nil
}

// endToEnd computes the end-to-end metrics of a run.
func endToEnd(o *outcome, setupTimes []float64) map[string]metric {
	e := o.e
	qs := e.questionsServed()
	return map[string]metric{
		"setup_s":                    {median(setupTimes), "s"},
		"question_session_p50_ms":    {e.sessionMedian(reqQuestions), "ms"},
		"questions_per_s":            {float64(qs) / e.windowSeconds(), "1/s"},
		"cpu_us_per_question":        {float64(o.cpu.Microseconds()) / float64(qs), "us"},
		"interactions_per_inference": {o.interactions, "count"},
		"max_rss_mb":                 {o.peakRSS / (1 << 20), "MiB"},
	}
}

// report prints every metric by name with its unit, plus what the JSON line
// leaves out: sample counts, ingest latency, error rate, generator
// lateness and request counts per phase.
func report(o *outcome, m map[string]metric) {
	e := o.e
	names := make([]string, 0, len(m))
	for n := range m {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		fmt.Printf("  %-28s %14.6g %s\n", n, m[n].Value, m[n].Unit)
	}
	// Latency figures kept out of the JSON line: too unsteady across runs on
	// a shared 2-vCPU host to carry a regression bound (see METHOD.json).
	fmt.Println("  for information:")
	fmt.Printf("  %-28s %14.6g ms\n", "answer_session_p50_ms", e.sessionMedian(reqAnswers))
	for _, k := range []reqKind{reqQuestions, reqAnswers, reqIngest} {
		n := len(e.latencies(k))
		if n == 0 {
			continue
		}
		fmt.Printf("  %-10s n=%-6d", kindNames[k], n)
		for _, q := range []float64{0.5, 0.9, 0.99} {
			// A percentile is shown only with at least 10 samples beyond it.
			if float64(n)*(1-q) >= 10 {
				fmt.Printf(" p%.0f %.4g ms", 100*q, quantile(e.latencies(k), q))
			}
		}
		fmt.Println()
	}
	rate := 0.0
	if o.attempted > 0 {
		rate = float64(o.failed) / float64(o.attempted)
	}
	fmt.Printf("  %-28s %14.6g ratio (failed %d of %d)\n", "error_rate", rate, o.failed, o.attempted)
	all, gen := e.lateness()
	valid := o.valid()
	fmt.Printf("  lateness_p99_ms %.4g (generator's own %.4g) window %.3fs passes %d valid %v\n", all, gen, e.windowSeconds(), e.passes, valid)
	var sent, ok [2]int
	for i := range e.records {
		r := &e.records[i]
		phase := 1
		if e.inWindow(r) {
			phase = 0
		}
		sent[phase]++
		if r.ok {
			ok[phase]++
		}
	}
	for i, phase := range []string{"timed", "drain"} {
		fmt.Printf("  phase %-5s sent %d succeeded %d failed %d\n", phase, sent[i], ok[i], sent[i]-ok[i])
	}
	fmt.Printf("  sessions completed %d wrong %d\n", o.completed, len(o.wrong))
	for _, msg := range append(e.errs, o.wrong...) {
		fmt.Println("  FAIL", msg)
	}
}

func emit(res result) error {
	for name, m := range res.Metrics {
		if math.IsNaN(m.Value) || math.IsInf(m.Value, 0) {
			return fmt.Errorf("metric %s has no value", name)
		}
	}
	b, err := json.Marshal(res)
	if err != nil {
		return err
	}
	fmt.Println(string(b))
	return nil
}

func cpuTime() time.Duration {
	var ru syscall.Rusage
	_ = syscall.Getrusage(syscall.RUSAGE_SELF, &ru)
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

// resetPeakRSS restarts the kernel's resident-set high-water mark at the
// current resident set (Linux 4.0+). It reports whether it could.
func resetPeakRSS() bool {
	return os.WriteFile("/proc/self/clear_refs", []byte("5"), 0) == nil
}

// readPeakRSS returns the resident-set high-water mark (VmHWM) in bytes, or
// NaN when it cannot be read.
func readPeakRSS() float64 {
	data, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return math.NaN()
	}
	for _, line := range strings.Split(string(data), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSpace(strings.TrimSuffix(strings.TrimSpace(rest), "kB")), 64)
			if err == nil {
				return kb * 1024
			}
		}
	}
	return math.NaN()
}
