package joininference

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"testing"

	"repro/internal/paperdata"
	"repro/internal/policy"
	"repro/internal/synth"
)

// questionSeq drives a session to completion against an honest oracle,
// fetching k questions per round, and returns every question served in
// order — the bit-identity witness the policy cache must preserve.
func questionSeq(t *testing.T, s *Session, goal Pred, k int) []QuestionRef {
	t.Helper()
	ctx := context.Background()
	oracle := HonestOracle(goal)
	var seq []QuestionRef
	for round := 0; ; round++ {
		if round > 10000 {
			t.Fatal("session did not converge")
		}
		qs, err := s.NextQuestions(ctx, k)
		if err != nil {
			t.Fatal(err)
		}
		if len(qs) == 0 {
			return seq
		}
		labels := make([]Label, len(qs))
		for i, q := range qs {
			seq = append(seq, q.Ref())
			l, err := oracle.Label(ctx, q)
			if err != nil {
				t.Fatal(err)
			}
			labels[i] = l
		}
		if _, err := s.AnswerBatch(qs, labels); err != nil {
			t.Fatal(err)
		}
	}
}

func sameSeq(t *testing.T, name string, want, got []QuestionRef) {
	t.Helper()
	if len(want) != len(got) {
		t.Fatalf("%s: %d questions, want %d\n got %v\nwant %v", name, len(got), len(want), got, want)
	}
	for i := range want {
		if want[i] != got[i] {
			t.Fatalf("%s: question %d = %+v, want %+v", name, i, got[i], want[i])
		}
	}
}

// TestPolicyCacheDifferentialJoin proves the correctness bar of the cache:
// for every built-in strategy, an uncached session, the session that
// populates a cold cache, and a session served from the warm cache ask
// bit-identical question sequences — for single fetches and for batches —
// and each reaches the halt condition. The lookahead strategies, which the
// cache exists for, also run one question per fetch on the paper's Figure 7
// synthetic configuration (3, 3, 100, 100).
func TestPolicyCacheDifferentialJoin(t *testing.T) {
	fh := paperdata.FlightHotel()
	fig7 := synth.MustGenerate(synth.PaperConfigs()[0], 1)
	cases := []struct {
		name       string // the cache's instance key
		sub        string // subtest name prefix
		inst       *Instance
		goal       [][2]string
		strategies []StrategyID
		ks         []int
	}{
		{"flight-hotel", "", fh, [][2]string{{"To", "City"}, {"Airline", "Discount"}}, KnownStrategies(), []int{1, 3}},
		{"fig7", "fig7/", fig7, [][2]string{{"A1", "B1"}}, []StrategyID{StrategyL1S, StrategyL2S}, []int{1}},
	}
	for _, tc := range cases {
		inst := tc.inst
		classes := PrecomputeClasses(inst)
		goal, err := PredFromNames(NewSession(inst).Universe(), tc.goal...)
		if err != nil {
			t.Fatal(err)
		}
		for _, id := range tc.strategies {
			for _, k := range tc.ks {
				t.Run(fmt.Sprintf("%s%s/k=%d", tc.sub, id, k), func(t *testing.T) {
					base := []Option{WithStrategy(id), WithSeed(7), WithPrecomputedClasses(classes)}
					ref := questionSeq(t, NewSession(inst, base...), goal, k)

					cache := NewPolicyCache(0)
					cached := append(append([]Option(nil), base...), WithPolicyCache(cache, tc.name))
					cold := questionSeq(t, NewSession(inst, cached...), goal, k)
					sameSeq(t, "cold cache", ref, cold)
					if cache.Stats().Publishes == 0 {
						t.Fatal("cold session published nothing")
					}

					before := cache.Stats()
					warm := questionSeq(t, NewSession(inst, cached...), goal, k)
					sameSeq(t, "warm cache", ref, warm)
					after := cache.Stats()
					if after.Hits == before.Hits {
						t.Error("warm session never hit the cache")
					}
					if after.Misses != before.Misses {
						t.Errorf("warm session missed %d times on an unbounded cache", after.Misses-before.Misses)
					}
				})
			}
		}
	}
}

// TestPolicyCacheDifferentialSemijoin is the semijoin counterpart: the
// cached walk must skip the NP-complete CONS⋉ scans yet pick identical
// rows.
func TestPolicyCacheDifferentialSemijoin(t *testing.T) {
	inst := paperdata.Example21()
	u := NewSemijoinSession(inst).Universe()
	goal, err := PredFromNames(u, [2]string{"A1", "B2"})
	if err != nil {
		t.Fatal(err)
	}
	for _, k := range []int{1, 2} {
		t.Run(fmt.Sprintf("k=%d", k), func(t *testing.T) {
			ref := questionSeq(t, NewSemijoinSession(inst), goal, k)

			cache := NewPolicyCache(0)
			opt := WithPolicyCache(cache, "example21")
			cold := questionSeq(t, NewSemijoinSession(inst, opt), goal, k)
			sameSeq(t, "cold cache", ref, cold)

			before := cache.Stats()
			warm := questionSeq(t, NewSemijoinSession(inst, opt), goal, k)
			sameSeq(t, "warm cache", ref, warm)
			if cache.Stats().Hits == before.Hits {
				t.Error("warm semijoin session never hit the cache")
			}
		})
	}
}

// TestPolicyCacheBatchExtension publishes nodes with k=1 and reads them
// with k=3: the cached strategy pick is reused and the batch scan extends
// live, still bit-identical to an uncached k=3 session.
func TestPolicyCacheBatchExtension(t *testing.T) {
	inst := paperdata.FlightHotel()
	u := NewSession(inst).Universe()
	goal, err := PredFromNames(u, [2]string{"To", "City"})
	if err != nil {
		t.Fatal(err)
	}
	for _, id := range KnownStrategies() {
		t.Run(string(id), func(t *testing.T) {
			base := []Option{WithStrategy(id), WithSeed(3)}
			ref := questionSeq(t, NewSession(inst, base...), goal, 3)

			cache := NewPolicyCache(0)
			cached := append(append([]Option(nil), base...), WithPolicyCache(cache, "fh"))
			// Populate with single fetches: nodes carry no pivots.
			questionSeq(t, NewSession(inst, cached...), goal, 1)
			got := questionSeq(t, NewSession(inst, cached...), goal, 3)
			sameSeq(t, "k=1-published nodes read at k=3", ref, got)
		})
	}
}

// TestPolicyCacheHugeK fetches k = 2^62 from a node published at k=1:
// the batch extends from the cached pick without sizing anything by k,
// and join and semijoin sessions ask the same questions as an uncached
// session at that k.
func TestPolicyCacheHugeK(t *testing.T) {
	const huge = 1 << 62
	cases := []struct {
		name  string
		inst  *Instance
		attrs [2]string
		newS  func(*Instance, ...Option) *Session
	}{
		{"join", paperdata.FlightHotel(), [2]string{"To", "City"}, NewSession},
		{"semijoin", paperdata.Example21(), [2]string{"A1", "B2"}, NewSemijoinSession},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			goal, err := PredFromNames(tc.newS(tc.inst).Universe(), tc.attrs)
			if err != nil {
				t.Fatal(err)
			}
			ref := questionSeq(t, tc.newS(tc.inst), goal, huge)

			cache := NewPolicyCache(0)
			opt := WithPolicyCache(cache, tc.name)
			if _, err := tc.newS(tc.inst, opt).NextQuestions(context.Background(), 1); err != nil {
				t.Fatal(err)
			}
			before := cache.Stats()
			got := questionSeq(t, tc.newS(tc.inst, opt), goal, huge)
			sameSeq(t, "k=2^62 from a k=1 node", ref, got)
			if cache.Stats().Hits == before.Hits {
				t.Error("the k=2^62 session never hit the cache")
			}
		})
	}
}

// TestPolicyCacheEvictionMidWalk bounds the cache so tightly that nodes
// are evicted while sessions are mid-walk; every fetch then falls back to
// live computation and sequences stay bit-identical.
func TestPolicyCacheEvictionMidWalk(t *testing.T) {
	inst := paperdata.FlightHotel()
	u := NewSession(inst).Universe()
	goal, err := PredFromNames(u, [2]string{"To", "City"}, [2]string{"Airline", "Discount"})
	if err != nil {
		t.Fatal(err)
	}
	for _, id := range []StrategyID{StrategyL2S, StrategyRND} {
		t.Run(string(id), func(t *testing.T) {
			base := []Option{WithStrategy(id), WithSeed(5)}
			ref := questionSeq(t, NewSession(inst, base...), goal, 2)

			cache := NewPolicyCache(360) // room for only a couple of nodes
			cached := append(append([]Option(nil), base...), WithPolicyCache(cache, "fh"))
			for i := 0; i < 3; i++ {
				got := questionSeq(t, NewSession(inst, cached...), goal, 2)
				sameSeq(t, fmt.Sprintf("run %d under eviction pressure", i), ref, got)
			}
			if cache.Stats().Evictions == 0 {
				t.Error("no evictions despite the tiny byte bound")
			}
		})
	}
}

// TestPolicyCacheChurn runs concurrent sessions over one shared cache and
// instance, with goals that make their walks diverge at different depths;
// every session must match its uncached twin. Run with -race.
func TestPolicyCacheChurn(t *testing.T) {
	inst, err := synth.Generate(synth.Config{AttrsR: 3, AttrsP: 3, Rows: 18, Values: 3}, 11)
	if err != nil {
		t.Fatal(err)
	}
	classes := PrecomputeClasses(inst)
	u := NewSession(inst).Universe()
	goals := make([]Pred, 0, 4)
	for _, pairs := range [][][2]string{
		{{"A1", "B1"}},
		{{"A1", "B1"}, {"A2", "B2"}},
		{{"A3", "B3"}},
		{{"A2", "B1"}},
	} {
		g, err := PredFromNames(u, pairs...)
		if err != nil {
			t.Fatal(err)
		}
		goals = append(goals, g)
	}
	for _, maxBytes := range []int64{0, 2000} { // unbounded, and eviction-heavy
		t.Run(fmt.Sprintf("maxBytes=%d", maxBytes), func(t *testing.T) {
			cache := NewPolicyCache(maxBytes)
			var wg sync.WaitGroup
			for w := 0; w < 8; w++ {
				wg.Add(1)
				go func(w int) {
					defer wg.Done()
					id := KnownStrategies()[w%len(KnownStrategies())]
					goal := goals[w%len(goals)]
					base := []Option{WithStrategy(id), WithSeed(9), WithPrecomputedClasses(classes)}
					ref := questionSeq(t, NewSession(inst, base...), goal, 2)
					cached := append(append([]Option(nil), base...), WithPolicyCache(cache, "synth"))
					got := questionSeq(t, NewSession(inst, cached...), goal, 2)
					sameSeq(t, fmt.Sprintf("worker %d (%s)", w, id), ref, got)
				}(w)
			}
			wg.Wait()
		})
	}
}

// TestPolicyCacheResume snapshots a cached session mid-walk and resumes it
// (still cached): the remaining questions must match the uninterrupted
// uncached session, RND included — the stream position survives both the
// snapshot and the cache's fast-forward bookkeeping.
func TestPolicyCacheResume(t *testing.T) {
	inst := paperdata.FlightHotel()
	u := NewSession(inst).Universe()
	goal, err := PredFromNames(u, [2]string{"To", "City"})
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	for _, id := range KnownStrategies() {
		t.Run(string(id), func(t *testing.T) {
			base := []Option{WithStrategy(id), WithSeed(21)}
			ref := questionSeq(t, NewSession(inst, base...), goal, 1)
			if len(ref) < 2 {
				t.Skipf("only %d questions; nothing to resume", len(ref))
			}

			cache := NewPolicyCache(0)
			cached := append(append([]Option(nil), base...), WithPolicyCache(cache, "fh"))
			// Warm the cache with a full run, then walk a fresh session two
			// answers deep on pure hits, snapshot, resume, and finish.
			questionSeq(t, NewSession(inst, cached...), goal, 1)
			s := NewSession(inst, cached...)
			oracle := HonestOracle(goal)
			var seq []QuestionRef
			for i := 0; i < 2; i++ {
				qs, err := s.NextQuestions(ctx, 1)
				if err != nil || len(qs) == 0 {
					t.Fatalf("fetch %d: qs=%d err=%v", i, len(qs), err)
				}
				seq = append(seq, qs[0].Ref())
				l, _ := oracle.Label(ctx, qs[0])
				if err := s.Answer(qs[0], l); err != nil {
					t.Fatal(err)
				}
			}
			snap, err := s.Snapshot()
			if err != nil {
				t.Fatal(err)
			}
			resumed, err := ResumeSession(inst, snap, WithPolicyCache(cache, "fh"))
			if err != nil {
				t.Fatal(err)
			}
			seq = append(seq, questionSeq(t, resumed, goal, 1)...)
			sameSeq(t, "snapshot/resume through the cache", ref, seq)
		})
	}
}

// TestPolicyCachePrecompute warms the tree breadth-first and checks that a
// fresh session's first depth fetches are pure hits.
func TestPolicyCachePrecompute(t *testing.T) {
	inst := paperdata.FlightHotel()
	u := NewSession(inst).Universe()
	goal, err := PredFromNames(u, [2]string{"To", "City"})
	if err != nil {
		t.Fatal(err)
	}
	for _, id := range []StrategyID{StrategyL2S, StrategyRND} {
		t.Run(string(id), func(t *testing.T) {
			const depth = 3
			cache := NewPolicyCache(0)
			opts := []Option{WithStrategy(id), WithSeed(2), WithParallelism(4)}
			n, err := cache.Precompute(context.Background(), inst, "fh", depth, opts...)
			if err != nil {
				t.Fatal(err)
			}
			if n < depth { // at minimum the leftmost path exists
				t.Fatalf("expanded %d nodes, want ≥ %d", n, depth)
			}

			ref := questionSeq(t, NewSession(inst, opts...), goal, 1)
			before := cache.Stats()
			cached := append(append([]Option(nil), opts...), WithPolicyCache(cache, "fh"))
			got := questionSeq(t, NewSession(inst, cached...), goal, 1)
			sameSeq(t, "after precompute", ref, got)
			after := cache.Stats()
			wantHits := uint64(depth)
			if fetches := uint64(len(ref) + 1); fetches < wantHits {
				wantHits = fetches
			}
			if after.Hits-before.Hits < wantHits {
				t.Errorf("precomputed walk hit %d times, want ≥ %d", after.Hits-before.Hits, wantHits)
			}
		})
	}
}

// TestPolicyCacheCustomStrategyIgnored keeps caller-implemented strategies
// (which may be nondeterministic) out of the cache.
func TestPolicyCacheCustomStrategyIgnored(t *testing.T) {
	inst := paperdata.FlightHotel()
	u := NewSession(inst).Universe()
	goal, err := PredFromNames(u, [2]string{"To", "City"})
	if err != nil {
		t.Fatal(err)
	}
	cache := NewPolicyCache(0)
	s := NewSession(inst, WithCustomStrategy(firstInformative{}), WithPolicyCache(cache, "fh"))
	questionSeq(t, s, goal, 1)
	if st := cache.Stats(); st.Publishes != 0 || st.Hits != 0 || st.Misses != 0 {
		t.Errorf("custom-strategy session touched the cache: %+v", st)
	}
	if _, err := cache.Precompute(context.Background(), inst, "fh", 2, WithCustomStrategy(firstInformative{})); err == nil {
		t.Error("Precompute accepted a custom strategy")
	}
}

type firstInformative struct{}

func (firstInformative) Name() string { return "first" }
func (firstInformative) Next(v StrategyView) int {
	inf := v.InformativeClasses()
	if len(inf) == 0 {
		return -1
	}
	return inf[0]
}

// TestPolicyCacheCorruptNodeFallsBack: a node that does not describe the
// engine (e.g. two different instances wrongly sharing an instance id)
// must fall back to live computation, never panic or serve a dead pick.
func TestPolicyCacheCorruptNodeFallsBack(t *testing.T) {
	inst := paperdata.FlightHotel()
	u := NewSession(inst).Universe()
	goal, err := PredFromNames(u, [2]string{"To", "City"})
	if err != nil {
		t.Fatal(err)
	}
	for _, bad := range []policyNodeSpec{
		{chosen: 1 << 20},                   // class index from a bigger instance
		{chosen: 0, pivots: []int{1 << 20}}, // out-of-range pivot
		{chosen: 0, pivots: []int{-3}},      // negative pivot
	} {
		cache := NewPolicyCache(0)
		s := NewSession(inst, WithStrategy(StrategyBU), WithPolicyCache(cache, "fh"))
		// Poison the root node under exactly the key the session consults.
		cache.c.Publish(s.policyTreeKey(), nil, 0, bad.node())
		got := questionSeq(t, s, goal, 2)
		want := questionSeq(t, NewSession(inst, WithStrategy(StrategyBU)), goal, 2)
		sameSeq(t, "after corrupt node", want, got)
	}
}

type policyNodeSpec struct {
	chosen int
	pivots []int
}

func (sp policyNodeSpec) node() policy.Node {
	return policy.Node{Chosen: sp.chosen, Pivots: sp.pivots, Complete: true}
}

// TestPolicyCacheUndoRedraw: Undo rebuilds the RND stream from the seed,
// and the cache must follow the uncached behavior exactly (the post-undo
// node variants live under their own stream positions).
func TestPolicyCacheUndoRedraw(t *testing.T) {
	inst := paperdata.FlightHotel()
	u := NewSession(inst).Universe()
	goal, err := PredFromNames(u, [2]string{"To", "City"})
	if err != nil {
		t.Fatal(err)
	}
	run := func(opts ...Option) []QuestionRef {
		s := NewSession(inst, opts...)
		ctx := context.Background()
		oracle := HonestOracle(goal)
		var seq []QuestionRef
		answer := func() Question {
			qs, err := s.NextQuestions(ctx, 1)
			if err != nil || len(qs) == 0 {
				t.Fatalf("qs=%d err=%v", len(qs), err)
			}
			seq = append(seq, qs[0].Ref())
			l, _ := oracle.Label(ctx, qs[0])
			if err := s.Answer(qs[0], l); err != nil {
				t.Fatal(err)
			}
			return qs[0]
		}
		answer()
		answer()
		if err := s.Undo(); err != nil {
			t.Fatal(err)
		}
		seq = append(seq, questionSeq(t, s, goal, 1)...)
		return seq
	}
	base := []Option{WithStrategy(StrategyRND), WithSeed(13)}
	ref := run(base...)
	cache := NewPolicyCache(0)
	got := run(append(append([]Option(nil), base...), WithPolicyCache(cache, "fh"))...)
	sameSeq(t, "undo under RND", ref, got)
}

// TestPolicyCacheInconsistentRollback: a rejected answer leaves no trace,
// so the cached session must keep serving the same node as before.
func TestPolicyCacheInconsistentRollback(t *testing.T) {
	inst := paperdata.FlightHotel()
	u := NewSession(inst).Universe()
	goal, err := PredFromNames(u, [2]string{"To", "City"})
	if err != nil {
		t.Fatal(err)
	}
	cache := NewPolicyCache(0)
	s := NewSession(inst, WithStrategy(StrategyBU), WithPolicyCache(cache, "fh"))
	ctx := context.Background()
	oracle := HonestOracle(goal)
	// Walk honestly until informative questions remain alongside an
	// unlabeled certain class; contradict the certainty, expect the
	// rejection, and check the next fetch is unchanged.
	for {
		next1, err := s.NextQuestions(ctx, 1)
		if err != nil {
			t.Fatal(err)
		}
		if len(next1) == 0 {
			t.Skip("no moment with both an informative question and a certain class")
		}
		contradicted := false
		for ci := 0; ci < s.Classes(); ci++ {
			if _, labeled := s.join().engine.LabelOf(ci); labeled || s.join().engine.Informative(ci) {
				continue
			}
			c := s.join().engine.Classes()[ci]
			q, err := s.QuestionByRef(QuestionRef{RIndex: c.RI, PIndex: c.PI})
			if err != nil {
				continue
			}
			wrong := Negative
			if s.join().engine.CertainNegative(ci) {
				wrong = Positive
			}
			if err := s.Answer(q, wrong); !errors.Is(err, ErrInconsistent) {
				t.Fatalf("contradicting answer error = %v, want ErrInconsistent", err)
			}
			contradicted = true
			break
		}
		if contradicted {
			next2, err := s.NextQuestions(ctx, 1)
			if err != nil || len(next2) == 0 {
				t.Fatalf("after rollback: qs=%d err=%v", len(next2), err)
			}
			if next1[0].Ref() != next2[0].Ref() {
				t.Errorf("question changed across rejected answer: %+v vs %+v", next1[0].Ref(), next2[0].Ref())
			}
			return
		}
		l, _ := oracle.Label(ctx, next1[0])
		if err := s.Answer(next1[0], l); err != nil {
			t.Fatal(err)
		}
	}
}
