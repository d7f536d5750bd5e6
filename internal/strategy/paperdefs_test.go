package strategy_test

import (
	"fmt"
	"math/rand"
	"strconv"
	"testing"

	"repro/internal/inference"
	"repro/internal/paperdata"
	"repro/internal/predicate"
	"repro/internal/relation"
	"repro/internal/sample"
	"repro/internal/strategy"
)

// The paper-definition check: entropy¹ and entropy² computed by brute
// force over the whole version space, with neither Lemma 3.3/3.4 nor
// the certainty kernel, must equal Lookahead.Entropies. A tuple is
// certain under a sample when every predicate consistent with the sample
// agrees on it; u counts the tuples informative under the base sample that
// an extension makes certain, leaving out the tuples the extension labels
// — the convention of the paper's Figure 5.

// predSet is a set of predicates over a pair universe of at most 10 pairs:
// bit m stands for the predicate whose pair ids are the set bits of m.
type predSet [16]uint64

func (a predSet) and(b predSet) (out predSet) {
	for i := range a {
		out[i] = a[i] & b[i]
	}
	return out
}

func (a predSet) andNot(b predSet) (out predSet) {
	for i := range a {
		out[i] = a[i] &^ b[i]
	}
	return out
}

func (a predSet) empty() bool { return a == predSet{} }

// versionSpace holds, for every tuple of R × P, the predicates that select
// it, decided from the attribute values alone.
type versionSpace struct {
	all   predSet   // every predicate over Ω
	tuple [][2]int  // (R row, P row) per tuple id
	sel   []predSet // predicates selecting each tuple
	t     []uint    // T(t) as a pair mask, per tuple
}

func newVersionSpace(inst *relation.Instance, u *predicate.Universe) *versionSpace {
	n := 1 << u.Size()
	vs := &versionSpace{}
	for m := 0; m < n; m++ {
		vs.all[m/64] |= 1 << (m % 64)
	}
	for ri, r := range inst.R.Tuples {
		for pi, p := range inst.P.Tuples {
			var t uint
			for id := 0; id < u.Size(); id++ {
				i, j := u.Pair(id)
				if r[i] == p[j] {
					t |= 1 << id
				}
			}
			var sel predSet
			for m := 0; m < n; m++ {
				if uint(m)&^t == 0 { // every pair of m holds on (r, p)
					sel[m/64] |= 1 << (m % 64)
				}
			}
			vs.tuple = append(vs.tuple, [2]int{ri, pi})
			vs.sel = append(vs.sel, sel)
			vs.t = append(vs.t, t)
		}
	}
	return vs
}

// example is one labelled tuple.
type example struct {
	t   int
	pos bool
}

// certain returns, per tuple, whether all predicates consistent with the
// sample agree on it.
func (vs *versionSpace) certain(s []example) []bool {
	cons := vs.all
	for _, x := range s {
		if x.pos {
			cons = cons.and(vs.sel[x.t])
		} else {
			cons = cons.andNot(vs.sel[x.t])
		}
	}
	out := make([]bool, len(vs.sel))
	for t, sel := range vs.sel {
		out[t] = cons.andNot(sel).empty() || cons.and(sel).empty()
	}
	return out
}

// bruteLook evaluates the paper's entropies against one base sample.
type bruteLook struct {
	vs          *versionSpace
	base        []example
	baseCertain []bool
}

// u is |Uninf(ext) \ Uninf(base)| without the tuples ext labels beyond the
// base sample.
func (b *bruteLook) u(ext []example) int64 {
	newly := ext[len(b.base):]
	labelled := func(t int) bool {
		for _, x := range newly {
			if x.t == t {
				return true
			}
		}
		return false
	}
	var n int64
	for t, c := range b.vs.certain(ext) {
		if c && !b.baseCertain[t] && !labelled(t) {
			n++
		}
	}
	return n
}

func with(s []example, x example) []example {
	return append(append([]example(nil), s...), x)
}

// entropy1 is Section 4.4's entropy of tuple t in sample s.
func (b *bruteLook) entropy1(s []example, t int) strategy.Entropy {
	up := b.u(with(s, example{t, true}))
	un := b.u(with(s, example{t, false}))
	return strategy.Entropy{Min: min(up, un), Max: max(up, un)}
}

// entropy2 is Algorithm 5: per answer, the best entropy¹ (max Min, then
// max Max) over the tuples still informative, or (∞,∞) when none is; then
// the pessimistic answer (smaller Min, then smaller Max).
func (b *bruteLook) entropy2(t int) strategy.Entropy {
	var branches []strategy.Entropy
	for _, pos := range []bool{true, false} {
		ext := with(b.base, example{t, pos})
		best := strategy.Entropy{Min: strategy.Inf, Max: strategy.Inf}
		found := false
		for t2, c := range b.vs.certain(ext) {
			if c {
				continue
			}
			e := b.entropy1(ext, t2)
			if !found || e.Min > best.Min || (e.Min == best.Min && e.Max > best.Max) {
				best, found = e, true
			}
		}
		branches = append(branches, best)
	}
	ep, en := branches[0], branches[1]
	if en.Min < ep.Min || (en.Min == ep.Min && en.Max < ep.Max) {
		return en
	}
	return ep
}

// paperInstance draws a random instance over a pair universe of at most
// 10 pairs.
func paperInstance(r *rand.Rand) *relation.Instance {
	n, m := 1+r.Intn(3), 1+r.Intn(3)
	if r.Intn(4) == 0 {
		n, m = 2, 5
	}
	vals := 1 + r.Intn(4)
	rel := func(name string, attrs int) *relation.Relation {
		names := make([]string, attrs)
		for i := range names {
			names[i] = name + strconv.Itoa(i+1)
		}
		out := relation.NewRelation(relation.MustSchema(name, names...))
		for i := 0; i < 2+r.Intn(4); i++ {
			t := make(relation.Tuple, attrs)
			for k := range t {
				t[k] = strconv.Itoa(r.Intn(vals))
			}
			out.Tuples = append(out.Tuples, t)
		}
		return out
	}
	return relation.MustInstance(rel("R", n), rel("P", m))
}

// checkPaperDefinitions labels up to labels random tuples honestly for a
// random goal, then compares the engine's entropy¹ and entropy² of every
// informative class with the brute-force values in both counting modes.
func checkPaperDefinitions(t *testing.T, r *rand.Rand, inst *relation.Instance, labels int) {
	t.Helper()
	e := inference.New(inst)
	vs := newVersionSpace(inst, e.U)
	classOf := map[uint]int{}
	for ci, c := range e.Classes() {
		var mask uint
		for _, id := range c.Theta.Set.Elems() {
			mask |= 1 << id
		}
		classOf[mask] = ci
	}
	goal := uint(r.Intn(1 << e.U.Size()))
	var s []example
	for q := 0; q < labels; q++ {
		var inf []int
		for tu, c := range vs.certain(s) {
			if !c {
				inf = append(inf, tu)
			}
		}
		if len(inf) == 0 {
			break
		}
		tu := inf[r.Intn(len(inf))]
		x := example{tu, goal&^vs.t[tu] == 0}
		s = append(s, x)
		l := sample.Negative
		if x.pos {
			l = sample.Positive
		}
		if err := e.Label(classOf[vs.t[tu]], l); err != nil {
			t.Fatal(err)
		}
	}
	baseCertain := vs.certain(s)
	b := &bruteLook{vs: vs, base: s, baseCertain: baseCertain}
	for k := 1; k <= 2; k++ {
		la := strategy.L1S(0)
		if k == 2 {
			la = strategy.L2S(0)
		}
		got := la.Entropies(e)
		want := map[int]strategy.Entropy{}
		for tu, c := range baseCertain {
			if c {
				continue
			}
			if k == 1 {
				want[classOf[vs.t[tu]]] = b.entropy1(s, tu)
			} else {
				want[classOf[vs.t[tu]]] = b.entropy2(tu)
			}
		}
		desc := fmt.Sprintf("|Ω|=%d sample %v k=%d", e.U.Size(), s, k)
		if len(got) != len(want) {
			t.Fatalf("%s: %d informative classes, brute force %d", desc, len(got), len(want))
		}
		for ci, w := range want {
			if g, ok := got[ci]; !ok || g != w {
				t.Fatalf("%s class %d: engine %v, brute force %v", desc, ci, g, w)
			}
		}
	}
}

// TestEntropiesMatchPaperDefinitions: on the paper's running example and on
// random instances with |Ω| ≤ 10 and random honest partial samples, the
// engine's entropy¹ and entropy² equal the brute-force values.
func TestEntropiesMatchPaperDefinitions(t *testing.T) {
	r := rand.New(rand.NewSource(1))
	for labels := 0; labels < 3; labels++ {
		checkPaperDefinitions(t, r, paperdata.Example21(), labels)
	}
	for i := 0; i < 150; i++ {
		checkPaperDefinitions(t, r, paperInstance(r), r.Intn(4))
	}
}
