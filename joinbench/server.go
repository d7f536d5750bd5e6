package main

import (
	"context"
	"errors"
	"expvar"
	"fmt"
	"log/slog"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"time"

	ji "repro"
	"repro/internal/obs"
	"repro/internal/resilience"
	"repro/internal/service"
	"repro/internal/store"
)

// server is one joinserve instance, wired through the service package the
// way cmd/joinserve wires it at its default flags: a log store in its own
// directory behind store retry, one breaker shared by session persistence
// and the policy tier, the policy cache with its store tier, the default
// telemetry bundle (256-span ring), a 30 s request deadline, the TTL
// janitor and the same http.Server timeouts. The benchmark registers its own
// instances instead of the paper defaults, and sizes the policy cache and
// admission gates per workload.
type server struct {
	dir     string
	logFile *os.File
	raw     store.KV
	kv      store.KV
	breaker *resilience.Breaker
	pc      *ji.PolicyCache
	bundle  *service.Obs
	reg     *service.Registry
	mgr     *service.Manager
	stopJan func()
	ln      net.Listener
	srv     *http.Server
	done    chan error
	addr    string
	// regLoad is how long loading every instance (generation, T-class
	// precompute, instance-cache write) took.
	regLoad time.Duration
}

// startServer sets one server up and returns it listening on loopback. tr,
// when non-nil, wraps the handler and the store and receives the spans.
func startServer(w *workload, root string, tr *tracer) (s *server, err error) {
	s = &server{}
	defer func() {
		if err != nil {
			s.close()
		}
	}()
	if s.dir, err = os.MkdirTemp(root, "server-"); err != nil {
		return s, err
	}
	if s.logFile, err = os.Create(filepath.Join(s.dir, "joinserve.log")); err != nil {
		return s, err
	}
	logger := obs.NewLogger(s.logFile, "text", slog.LevelInfo)
	s.bundle = service.NewObs()
	s.bundle.Tracer = obs.NewTracer(256)
	if tr != nil {
		s.bundle.Tracer.SetSink(tr.spanSink)
	}
	log, err := store.OpenLog(filepath.Join(s.dir, "store"), store.LogOptions{Observe: s.bundle.StoreObserver()})
	if err != nil {
		return s, err
	}
	s.raw = log
	if err = store.EnsureFormat(log); err != nil {
		return s, err
	}
	s.kv = store.NewRetry(log, store.RetryOptions{Attempts: 3})
	if tr != nil {
		s.kv = tr.wrapKV(s.kv)
	}
	s.breaker = resilience.NewBreaker(resilience.BreakerOptions{
		Threshold: 5,
		Cooloff:   5 * time.Second,
		OnChange: func(from, to resilience.BreakerState) {
			logger.Warn("store breaker state change", "from", from.String(), "to", to.String())
		},
	})
	s.reg = service.NewRegistry()
	s.reg.AttachStore(s.kv, logger)
	for _, in := range w.instances {
		if err = in.def.register(s.reg); err != nil {
			return s, err
		}
	}
	start := time.Now()
	for _, in := range w.instances {
		if _, err = s.reg.Get(in.def.name); err != nil {
			return s, err
		}
	}
	s.regLoad = time.Since(start)
	opts := service.Options{
		TTL:            30 * time.Minute,
		Logger:         logger,
		Obs:            s.bundle,
		RequestTimeout: 30 * time.Second,
		Store:          s.kv,
		StoreBreaker:   s.breaker,
	}
	if w.gates {
		opts.MaxConcurrent, opts.MaxQueue = w.clients, w.clients
	}
	if w.policyBytes != 0 {
		s.pc = ji.NewPolicyCache(w.policyBytes)
		s.pc.AttachStore(s.kv, 0, ji.WithTierBreaker(s.breaker))
		opts.PolicyCache = s.pc
	}
	if s.mgr, err = service.NewManager(s.reg, opts); err != nil {
		return s, err
	}
	s.stopJan = s.mgr.StartJanitor(opts.JanitorInterval())
	if w.warm {
		if err = warmPolicy(s.mgr, w.specs); err != nil {
			return s, fmt.Errorf("warming the policy cache: %w", err)
		}
	}
	mux := http.NewServeMux()
	var h http.Handler = service.NewHandler(s.mgr)
	if tr != nil {
		h = tr.wrapHandler(h)
	}
	mux.Handle("/", h)
	mux.Handle("GET /debug/vars", expvar.Handler())
	if s.ln, err = net.Listen("tcp", "127.0.0.1:0"); err != nil {
		return s, err
	}
	s.addr = s.ln.Addr().String()
	s.srv = &http.Server{
		Handler:           mux,
		ReadHeaderTimeout: 10 * time.Second,
		ReadTimeout:       1 * time.Minute,
		WriteTimeout:      2 * time.Minute,
		IdleTimeout:       2 * time.Minute,
	}
	s.done = make(chan error, 1)
	go func() {
		if err := s.srv.Serve(s.ln); !errors.Is(err, http.ErrServerClosed) {
			s.done <- err
			return
		}
		s.done <- nil
	}()
	return s, nil
}

// warmPolicy drives every spec once through the manager in-process, exactly
// as the crowd will over HTTP, so the run starts with the goal set's policy
// trees resident (and written through to the store tier).
func warmPolicy(m *service.Manager, specs []*spec) error {
	ctx := context.Background()
	for _, sp := range specs {
		info, err := m.Create(sp.params())
		if err != nil {
			return err
		}
		c := newCrowd(sp, nil)
		for {
			qs, err := m.Questions(ctx, info.ID, sp.k)
			if err != nil {
				return err
			}
			if len(qs) == 0 {
				break
			}
			var answers []service.Answer
			for _, q := range qs {
				answers = append(answers, c.answer(q.Ref(), q.RTuple, q.PTuple))
			}
			if _, err := m.Answer(ctx, info.ID, answers); err != nil {
				return err
			}
		}
		if err := m.Delete(info.ID); err != nil {
			return err
		}
	}
	return nil
}

// close shuts the server down the way joinserve does on SIGTERM (drain,
// then persist every live session) and removes its directory.
func (s *server) close() {
	ctx, cancel := context.WithTimeout(context.Background(), 15*time.Second)
	defer cancel()
	if s.srv != nil {
		_ = s.srv.Shutdown(ctx)
		<-s.done
	} else if s.ln != nil {
		s.ln.Close()
	}
	if s.stopJan != nil {
		s.stopJan()
	}
	if s.mgr != nil {
		_ = s.mgr.Close(ctx)
	}
	if s.raw != nil {
		_ = s.raw.Close()
	}
	if s.logFile != nil {
		s.logFile.Close()
	}
	if s.dir != "" {
		os.RemoveAll(s.dir)
	}
}
