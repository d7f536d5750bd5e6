package main

import (
	"fmt"
	"math/rand"

	ji "repro"
	"repro/internal/predicate"
	"repro/internal/product"
	"repro/internal/service"
	"repro/internal/synth"
	"repro/internal/tpch"
)

// Session parameters shared by every generated session: the strategy seed
// (so RND sessions of one spec ask the same questions and share a policy
// tree) and the soft-session settings. A soft session commits a label once
// two unit votes agree, so the one planted lie never commits on its own;
// the error budget of 1 covers the case where it would.
const (
	strategySeed  = 7
	softThreshold = 2
	softBudget    = 1
)

// instanceDef is one named instance: how the server registers it and how
// the benchmark builds its own copy for the crowd and the checks.
type instanceDef struct {
	name     string
	register func(reg *service.Registry) error
	build    func() (*ji.Instance, error)
}

func tpchDef(j tpch.Join) instanceDef {
	name := fmt.Sprintf("tpch-join%d", int(j))
	return instanceDef{
		name:     name,
		register: func(reg *service.Registry) error { return reg.RegisterTPCH(name, j, 1, 42) },
		build: func() (*ji.Instance, error) {
			d, err := tpch.Generate(1, 42)
			if err != nil {
				return nil, err
			}
			inst, _, err := d.Instance(j)
			return inst, err
		},
	}
}

func synthDef(cfg synth.Config) instanceDef {
	name := fmt.Sprintf("synth-%d-%d-%d-%d", cfg.AttrsR, cfg.AttrsP, cfg.Rows, cfg.Values)
	return instanceDef{
		name:     name,
		register: func(reg *service.Registry) error { return reg.RegisterSynth(name, cfg, 1) },
		build:    func() (*ji.Instance, error) { return synth.Generate(cfg, 1) },
	}
}

var (
	fig7Synth    = synth.Config{AttrsR: 3, AttrsP: 3, Rows: 100, Values: 100}
	coldPathCfg  = synth.Config{AttrsR: 9, AttrsP: 8, Rows: 6, Values: 3}
	strategyList = ji.KnownStrategies()
)

// instance is the benchmark's own copy of a registered instance.
type instance struct {
	def  instanceDef
	inst *ji.Instance
	u    *ji.Universe
	// goals are the goal predicates sessions over this instance infer.
	goals []ji.Pred
}

func loadInstance(def instanceDef) (*instance, error) {
	inst, err := def.build()
	if err != nil {
		return nil, fmt.Errorf("building %s: %w", def.name, err)
	}
	return &instance{def: def, inst: inst, u: predicate.NewUniverse(inst)}, nil
}

// tpchGoal is the paper's goal join of a TPC-H instance.
func tpchGoal(j tpch.Join) (ji.Pred, error) {
	d, err := tpch.Generate(1, 42)
	if err != nil {
		return ji.Pred{}, err
	}
	_, goal, err := d.Instance(j)
	return goal, err
}

// classGoals returns the first n distinct nonempty T-class predicates of at
// most maxSize pairs, in class order: goals the Fig-7 experiments draw from.
func classGoals(in *instance, n, maxSize int) []ji.Pred {
	var out []ji.Pred
	seen := map[string]bool{}
	for _, c := range product.ClassesIndexed(in.inst, in.u) {
		if s := c.Theta.Size(); s < 1 || s > maxSize || seen[c.Theta.Key()] {
			continue
		}
		seen[c.Theta.Key()] = true
		out = append(out, c.Theta)
		if len(out) == n {
			break
		}
	}
	return out
}

// spec is one kind of session a workload opens.
type spec struct {
	name     string
	in       *instance
	goal     ji.Pred
	strategy ji.StrategyID
	semijoin bool
	soft     bool
	k        int
	// liePos is the index, among the answers the crowd sends, of the one
	// planted wrong answer of a soft session (-1: none).
	liePos int
	// want is the reference interaction count (answers applied), computed
	// in-process before the run; -1 when the workload checks no count.
	want int
}

func (s *spec) params() service.Params {
	p := service.Params{Instance: s.in.def.name, Semijoin: s.semijoin, Strategy: s.strategy, Seed: strategySeed}
	if s.semijoin {
		p.Strategy = ""
	}
	if s.soft {
		p.SoftThreshold, p.ErrorBudget = softThreshold, softBudget
	}
	return p
}

// workload is one traffic mix.
type workload struct {
	name string
	// openLoop workloads start sessions as a Poisson process at sessionRate
	// per second and post a delta every 1/ingestRate seconds; the closed
	// loop plays the spec list with one client, whole passes only.
	openLoop    bool
	sessionRate float64
	ingestRate  float64
	clients     int
	// policyBytes bounds the policy cache (0 disables it); gates turns on
	// admission control with one slot per client.
	policyBytes int64
	gates       bool
	// warm drives every spec once through the manager at setup, so the
	// policy cache (and its store tier) hold the goal set's trees.
	warm bool
	// checkCount compares each session's interaction count with its
	// reference; churn sessions follow a changing instance and are checked
	// against their own answers instead.
	checkCount bool
	instances  []*instance
	specs      []*spec
	// ingest is the instances the writer posts deltas to, in turn.
	ingest []*instance
}

var workloadNames = []string{"warm-crowd", "cold-lookahead", "churn"}

// Workload rates, chosen near half of what a 2-CPU host sustains (see
// METHOD.json for the capacity probe behind them).
const (
	warmSessionRate  = 200
	churnSessionRate = 200
	churnIngestRate  = 10
	// churnPolicyBytes sits below the churn working set (about 6 KiB of
	// policy nodes), so trees are evicted and paged back in from the store
	// tier during the run.
	churnPolicyBytes = 2 << 10
)

// newWorkload builds the named workload. The seed picks what the crowd
// decides (arrival times, session order); the data, goals and the churn
// writer's rows are fixed.
func newWorkload(name string, seed int64) (*workload, error) {
	switch name {
	case "warm-crowd":
		w := &workload{name: name, openLoop: true, sessionRate: warmSessionRate, clients: 2,
			policyBytes: 64 << 20, gates: true, warm: true, checkCount: true}
		syn, err := loadInstance(synthDef(fig7Synth))
		if err != nil {
			return nil, err
		}
		syn.goals = classGoals(syn, 3, 3)
		j1, err := loadTPCH(tpch.Join1)
		if err != nil {
			return nil, err
		}
		w.instances = []*instance{syn, j1}
		// One cycle of the mix: every goal under every strategy, hard and
		// soft (the lie as the first or the second answer), plus a semijoin
		// session; hard and semijoin specs appear twice, so a cycle is about
		// 45% hard, 45% soft and 10% semijoin sessions. Arrivals draw specs
		// in seeded order, whole cycles at a time, so every run plays the same
		// mix.
		for _, in := range w.instances {
			for gi, goal := range in.goals {
				semi := &spec{name: fmt.Sprintf("%s/g%d/semijoin", in.def.name, gi), in: in, goal: goal, semijoin: true, k: 2, liePos: -1}
				w.specs = append(w.specs, semi, semi)
				for _, st := range strategyList {
					hard := &spec{name: fmt.Sprintf("%s/g%d/%s", in.def.name, gi, st), in: in, goal: goal, strategy: st, k: 2, liePos: -1}
					w.specs = append(w.specs, hard, hard)
					for lie := 0; lie < 2; lie++ {
						w.specs = append(w.specs, &spec{name: fmt.Sprintf("%s/g%d/%s/soft-lie%d", in.def.name, gi, st, lie), in: in, goal: goal, strategy: st, soft: true, k: 2, liePos: lie})
					}
				}
			}
		}
		return w, nil
	case "cold-lookahead":
		w := &workload{name: name, clients: 1, checkCount: true}
		for _, j := range tpch.AllJoins() {
			in, err := loadTPCH(j)
			if err != nil {
				return nil, err
			}
			w.instances = append(w.instances, in)
			for _, st := range []ji.StrategyID{ji.StrategyL1S, ji.StrategyL2S} {
				w.specs = append(w.specs, &spec{name: fmt.Sprintf("%s/%s", in.def.name, st), in: in, goal: in.goals[0], strategy: st, k: 1, liePos: -1})
			}
		}
		cp, err := loadInstance(synthDef(coldPathCfg))
		if err != nil {
			return nil, err
		}
		cp.goals = []ji.Pred{predicate.FromPairs(cp.u, [2]int{0, 0}, [2]int{3, 2})}
		w.instances = append(w.instances, cp)
		for _, st := range []ji.StrategyID{ji.StrategyL1S, ji.StrategyL2S} {
			w.specs = append(w.specs, &spec{name: fmt.Sprintf("%s/%s", cp.def.name, st), in: cp, goal: cp.goals[0], strategy: st, k: 1, liePos: -1})
		}
		// Twelve more L2S goals on the multi-word universe: questions of one
		// kind and cost, numerous enough that the pass's median question is
		// a lookahead, not a boundary between cheap and costly ones.
		for gi, goal := range classGoals(cp, 12, cp.u.Size()) {
			w.specs = append(w.specs, &spec{name: fmt.Sprintf("%s/c%d/L2S", cp.def.name, gi), in: cp, goal: goal, strategy: ji.StrategyL2S, k: 1, liePos: -1})
		}
		for _, in := range []*instance{cp, w.instances[0], w.instances[2]} {
			w.specs = append(w.specs, &spec{name: in.def.name + "/semijoin", in: in, goal: in.goals[0], semijoin: true, k: 1, liePos: -1})
		}
		// Every pass does the same work; the seed only picks its order.
		rng := rand.New(rand.NewSource(seed))
		rng.Shuffle(len(w.specs), func(i, j int) { w.specs[i], w.specs[j] = w.specs[j], w.specs[i] })
		return w, nil
	case "churn":
		w := &workload{name: name, openLoop: true, sessionRate: churnSessionRate, ingestRate: churnIngestRate,
			clients: 2, policyBytes: churnPolicyBytes, gates: true, warm: true}
		syn, err := loadInstance(synthDef(fig7Synth))
		if err != nil {
			return nil, err
		}
		syn.goals = classGoals(syn, 3, 3)
		j2, err := loadTPCH(tpch.Join2)
		if err != nil {
			return nil, err
		}
		w.instances = []*instance{syn, j2}
		w.ingest = w.instances
		for _, in := range w.instances {
			for gi, goal := range in.goals {
				for _, st := range []ji.StrategyID{ji.StrategyL1S, ji.StrategyL2S, ji.StrategyTD} {
					w.specs = append(w.specs, &spec{name: fmt.Sprintf("%s/g%d/%s", in.def.name, gi, st), in: in, goal: goal, strategy: st, k: 2, liePos: -1, want: -1})
				}
			}
		}
		return w, nil
	}
	return nil, fmt.Errorf("unknown workload %q (want one of %v)", name, workloadNames)
}

func loadTPCH(j tpch.Join) (*instance, error) {
	in, err := loadInstance(tpchDef(j))
	if err != nil {
		return nil, err
	}
	goal, err := tpchGoal(j)
	if err != nil {
		return nil, err
	}
	in.goals = []ji.Pred{goal}
	return in, nil
}

// deltaSeed fixes the churn writer's row stream: every run ingests the same
// rows in the same order, so the instances evolve identically and the
// workload seed varies only the crowd.
const deltaSeed = 1

// delta is one row insert: a copy of an existing row of R or P with
// one attribute taken from another row of the same relation. Inserts only:
// row indexes stay stable, so a question in flight across an ingest still
// names the same tuples when its answer arrives.
type delta struct {
	in      *instance
	insertR [][]string
	insertP [][]string
}

func newDelta(in *instance, rng *rand.Rand) delta {
	rel := in.inst.R
	toR := rng.Intn(2) == 0
	if !toR {
		rel = in.inst.P
	}
	n := rel.Len()
	row := append([]string(nil), rel.Tuples[rng.Intn(n)]...)
	attr := rng.Intn(len(row))
	row[attr] = rel.Tuples[rng.Intn(n)][attr]
	d := delta{in: in}
	if toR {
		d.insertR = [][]string{row}
	} else {
		d.insertP = [][]string{row}
	}
	return d
}
