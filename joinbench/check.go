package main

import (
	"context"
	"fmt"
	"slices"
	"strings"

	ji "repro"
	"repro/internal/predicate"
)

// fig6Interactions are BenchmarkFig6PerJoin's interaction counts for the
// lookahead strategies on the TPC-H data at multiplier 1, seed 42 (recorded
// in BENCH_baseline.json, produced by in-process Run with an honest
// oracle). They are the cold-lookahead references for those sessions:
// recomputing join4/L2S in-process would cost more than the run itself.
var fig6Interactions = map[string]int{
	"tpch-join1/L1S": 4, "tpch-join1/L2S": 5,
	"tpch-join2/L1S": 2, "tpch-join2/L2S": 2,
	"tpch-join3/L1S": 4, "tpch-join3/L2S": 7,
	"tpch-join4/L1S": 8, "tpch-join4/L2S": 10,
	"tpch-join5/L1S": 8, "tpch-join5/L2S": 6,
}

// computeReferences fills every spec's want: the number of answers an
// in-process session with the same options applies when the same crowd
// answers it with the same batch size. Churn specs keep want -1.
func computeReferences(w *workload) error {
	if !w.checkCount {
		return nil
	}
	classes := map[string]*ji.ClassSet{}
	for _, sp := range w.specs {
		if n, ok := fig6Interactions[sp.name]; ok {
			sp.want = n
			continue
		}
		cs := classes[sp.in.def.name]
		if cs == nil {
			cs = ji.PrecomputeClasses(sp.in.inst)
			classes[sp.in.def.name] = cs
		}
		n, err := reference(sp, cs)
		if err != nil {
			return fmt.Errorf("reference %s: %w", sp.name, err)
		}
		sp.want = n
	}
	return nil
}

// reference plays one spec in-process, mirroring the service: every
// question of a batch is answered, answers whose question an earlier answer
// decided are skipped, soft answers go in as votes.
func reference(sp *spec, cs *ji.ClassSet) (int, error) {
	ctx := context.Background()
	opts := []ji.Option{ji.WithSeed(strategySeed)}
	if sp.soft {
		opts = append(opts, ji.WithSoftInference(softThreshold), ji.WithErrorBudget(softBudget))
	}
	var s *ji.Session
	if sp.semijoin {
		s = ji.NewSemijoinSession(sp.in.inst, opts...)
	} else {
		opts = append(opts, ji.WithStrategy(sp.strategy), ji.WithPrecomputedClasses(cs))
		s = ji.NewSession(sp.in.inst, opts...)
	}
	c := newCrowd(sp, nil)
	applied := 0
	for {
		qs, err := s.NextQuestions(ctx, sp.k)
		if err != nil {
			return 0, err
		}
		if len(qs) == 0 {
			return applied, nil
		}
		answers := make([]ji.Label, len(qs))
		for i, q := range qs {
			answers[i] = ji.Negative
			if c.answer(q.Ref(), q.RTuple, q.PTuple).Positive {
				answers[i] = ji.Positive
			}
		}
		for i, q := range qs {
			if !s.IsInformative(q) {
				continue
			}
			if sp.soft {
				err = s.AnswerVote(q, answers[i], ji.Vote{})
			} else {
				err = s.Answer(q, answers[i])
			}
			if err != nil {
				return 0, err
			}
			applied++
		}
	}
}

// checker verifies finished sessions, memoizing the goal's join per spec
// and each distinct answer's verdict.
type checker struct {
	w       *workload
	verdict map[string]string
}

func newChecker(w *workload) *checker {
	return &checker{w: w, verdict: map[string]string{}}
}

// check returns "" for a correct session, else what was wrong. A correct
// session's final predicate is instance-equivalent to its goal (selects the
// same join, or the same semijoin) and its interaction count equals the
// reference; on churn, where the instance changes under the session, the
// final predicate must instead agree with every answer the crowd gave.
func (c *checker) check(s *session) string {
	sp := s.sp
	text := s.predicate
	if strings.HasPrefix(text, "⊤") {
		// The empty conjunction renders as "⊤ (empty predicate)", which
		// ParsePredicate spells TRUE.
		text = "TRUE"
	}
	theta, err := ji.ParsePredicate(sp.in.u, text)
	if err != nil {
		return fmt.Sprintf("%s: unparseable predicate %q: %v", sp.name, s.predicate, err)
	}
	if !c.w.checkCount {
		for _, a := range s.answers {
			if theta.Selects(sp.in.u, a.rt, a.pt) != a.positive {
				return fmt.Sprintf("%s: predicate %q contradicts an answer", sp.name, s.predicate)
			}
		}
		return ""
	}
	if s.applied != sp.want {
		return fmt.Sprintf("%s: %d interactions, reference %d", sp.name, s.applied, sp.want)
	}
	key := sp.name + "|" + s.predicate
	v, ok := c.verdict[key]
	if !ok {
		inst, u := sp.in.inst, sp.in.u
		var equivalent bool
		if sp.semijoin {
			got, want := predicate.Semijoin(inst, u, theta), predicate.Semijoin(inst, u, sp.goal)
			slices.Sort(got)
			slices.Sort(want)
			equivalent = slices.Equal(got, want)
		} else {
			equivalent = slices.Equal(predicate.Join(inst, u, theta), predicate.Join(inst, u, sp.goal))
		}
		if !equivalent {
			v = fmt.Sprintf("%s: predicate %q is not instance-equivalent to the goal", sp.name, s.predicate)
		}
		c.verdict[key] = v
	}
	return v
}
