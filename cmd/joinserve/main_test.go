package main

import (
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"testing"

	joininference "repro"
	"repro/internal/paperdata"
	"repro/internal/service"
)

func TestWarmFlagParsing(t *testing.T) {
	var w warmFlags
	if err := w.Set("tpch-join1=L2S:3"); err != nil {
		t.Fatal(err)
	}
	if len(w) != 1 || w[0].instance != "tpch-join1" || w[0].strategy != joininference.StrategyL2S || w[0].depth != 3 {
		t.Fatalf("parsed %+v", w)
	}
	if got := w.String(); got != "tpch-join1=L2S:3" {
		t.Errorf("String() = %q", got)
	}
	for _, bad := range []string{"", "x", "x=y", "x=:3", "=L2S:3", "x=L2S:", "x=L2S:0", "x=L2S:-1", "x=L2S:many"} {
		var w warmFlags
		if err := w.Set(bad); err == nil {
			t.Errorf("Set(%q) accepted", bad)
		}
	}
}

// TestDebugEndpoints boots the server mux (service API + expvar) and
// checks what it serves: the manager's counters at /metrics (and no
// longer at /debug/metrics), the runtime's memstats at /debug/vars.
func TestDebugEndpoints(t *testing.T) {
	reg := service.NewRegistry()
	if err := reg.RegisterInstance("flights", paperdata.FlightHotel()); err != nil {
		t.Fatal(err)
	}
	cache := joininference.NewPolicyCache(1 << 20)
	mgr, err := service.NewManager(reg, service.Options{PolicyCache: cache})
	if err != nil {
		t.Fatal(err)
	}
	srv := httptest.NewServer(newServeMux(mgr, true))
	defer srv.Close()

	if _, err := mgr.Create(service.Params{Instance: "flights"}); err != nil {
		t.Fatal(err)
	}

	resp, err := http.Get(srv.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("/metrics status = %d", resp.StatusCode)
	}
	got := map[string]float64{}
	for _, line := range strings.Split(string(body), "\n") {
		if name, v, ok := strings.Cut(line, " "); ok && !strings.HasPrefix(line, "#") {
			got[name], _ = strconv.ParseFloat(v, 64)
		}
	}
	if got["sessions_created_total"] != 1 || got["sessions_live"] != 1 || got["policy_cache_max_bytes"] != 1<<20 {
		t.Errorf("/metrics: created %v, live %v, policy cache bound %v; want 1, 1, %d",
			got["sessions_created_total"], got["sessions_live"], got["policy_cache_max_bytes"], 1<<20)
	}
	old, err := http.Get(srv.URL + "/debug/metrics")
	if err != nil {
		t.Fatal(err)
	}
	old.Body.Close()
	if old.StatusCode != http.StatusNotFound {
		t.Errorf("/debug/metrics status = %d, want 404", old.StatusCode)
	}

	vars, err := http.Get(srv.URL + "/debug/vars")
	if err != nil {
		t.Fatal(err)
	}
	defer vars.Body.Close()
	if vars.StatusCode != http.StatusOK {
		t.Fatalf("/debug/vars status = %d", vars.StatusCode)
	}
	var doc map[string]json.RawMessage
	if err := json.NewDecoder(vars.Body).Decode(&doc); err != nil {
		t.Fatal(err)
	}
	if _, ok := doc["memstats"]; !ok {
		t.Error("/debug/vars does not serve memstats")
	}

	// -pprof mounts the profiling index.
	pp, err := http.Get(srv.URL + "/debug/pprof/")
	if err != nil {
		t.Fatal(err)
	}
	defer pp.Body.Close()
	if pp.StatusCode != http.StatusOK {
		t.Errorf("/debug/pprof/ status = %d with pprof enabled", pp.StatusCode)
	}
	plain := httptest.NewServer(newServeMux(mgr, false))
	defer plain.Close()
	off, err := http.Get(plain.URL + "/debug/pprof/")
	if err != nil {
		t.Fatal(err)
	}
	defer off.Body.Close()
	if off.StatusCode == http.StatusOK {
		t.Error("/debug/pprof/ served without -pprof")
	}

	// The service API is still mounted at the root.
	hz, err := http.Get(srv.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	hz.Body.Close()
	if hz.StatusCode != http.StatusOK {
		t.Errorf("/healthz status = %d", hz.StatusCode)
	}
}
