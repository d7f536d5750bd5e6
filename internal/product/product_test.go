package product

import (
	"fmt"
	"math/rand"
	"strconv"
	"testing"
	"testing/quick"

	"repro/internal/paperdata"
	"repro/internal/predicate"
	"repro/internal/relation"
	"repro/internal/tpch"
)

func TestClassesExample21(t *testing.T) {
	inst := paperdata.Example21()
	u := predicate.NewUniverse(inst)
	cs := Classes(inst, u)
	// Figure 3: all 12 product tuples have pairwise distinct T values.
	if len(cs) != 12 {
		t.Fatalf("got %d classes, want 12", len(cs))
	}
	for _, c := range cs {
		if c.Count != 1 {
			t.Errorf("class %v has count %d, want 1", c.Theta, c.Count)
		}
	}
	if TotalCount(cs) != inst.ProductSize() {
		t.Errorf("TotalCount = %d, want %d", TotalCount(cs), inst.ProductSize())
	}
	// Section 5.3: sizes 1×0, 1×1, 7×2, 3×3.
	sizeHist := map[int]int{}
	for _, c := range cs {
		sizeHist[c.Theta.Size()]++
	}
	if sizeHist[0] != 1 || sizeHist[1] != 1 || sizeHist[2] != 7 || sizeHist[3] != 3 {
		t.Errorf("size histogram = %v, want map[0:1 1:1 2:7 3:3]", sizeHist)
	}
	// Deterministic order: ascending size.
	for i := 1; i < len(cs); i++ {
		if cs[i-1].Theta.Size() > cs[i].Theta.Size() {
			t.Errorf("classes not ordered by size at %d", i)
		}
	}
}

func TestJoinRatioExample21(t *testing.T) {
	inst := paperdata.Example21()
	u := predicate.NewUniverse(inst)
	cs := Classes(inst, u)
	// Section 5.3 computes the join ratio of this instance as exactly 2.
	if got := JoinRatio(cs); got != 2.0 {
		t.Errorf("JoinRatio = %v, want 2", got)
	}
	if JoinRatio(nil) != 0 {
		t.Error("JoinRatio(nil) should be 0")
	}
}

func TestClassesGroupEqualT(t *testing.T) {
	// Two identical R rows: every class must have count 2.
	R := relation.NewRelation(relation.MustSchema("R", "A1"))
	R.MustAddTuple("1")
	R.MustAddTuple("1")
	P := relation.NewRelation(relation.MustSchema("P", "B1", "B2"))
	P.MustAddTuple("1", "0")
	P.MustAddTuple("0", "1")
	P.MustAddTuple("2", "2")
	inst := relation.MustInstance(R, P)
	u := predicate.NewUniverse(inst)
	cs := Classes(inst, u)
	if len(cs) != 3 {
		t.Fatalf("got %d classes, want 3", len(cs))
	}
	for _, c := range cs {
		if c.Count != 2 {
			t.Errorf("class %v count = %d, want 2", c.Theta, c.Count)
		}
		if c.RI != 0 {
			t.Errorf("representative should be first occurrence (RI=0), got %d", c.RI)
		}
	}
}

func TestMaxClassesExample21(t *testing.T) {
	inst := paperdata.Example21()
	u := predicate.NewUniverse(inst)
	cs := Classes(inst, u)
	maxes := MaxClasses(cs)
	// Figure 4: the three size-3 predicates are maximal, and so are the
	// four size-2 predicates not contained in any size-3 one
	// ({(A1,B1),(A2,B2)}, {(A1,B3),(A2,B3)}, {(A1,B1),(A2,B1)},
	// {(A2,B2),(A2,B3)}) — 7 maximal classes in total.
	if len(maxes) != 7 {
		t.Fatalf("got %d maximal classes, want 7", len(maxes))
	}
	size3 := 0
	for _, c := range maxes {
		switch c.Theta.Size() {
		case 3:
			size3++
		case 2:
		default:
			t.Errorf("maximal class %v has unexpected size %d", c.Theta, c.Theta.Size())
		}
	}
	if size3 != 3 {
		t.Errorf("got %d size-3 maximal classes, want 3", size3)
	}
	// No maximal class may be a proper subset of another maximal class.
	for i, c := range maxes {
		for j, d := range maxes {
			if i != j && c.Theta.Set.ProperSubsetOf(d.Theta.Set) {
				t.Errorf("maximal class %v ⊂ %v", c.Theta, d.Theta)
			}
		}
	}
}

// classesEqual compares two class lists exactly: order, thetas,
// representatives and counts.
func classesEqual(a, b []*Class) error {
	if len(a) != len(b) {
		return fmt.Errorf("%d classes vs %d", len(a), len(b))
	}
	for i := range a {
		if !a[i].Theta.Equal(b[i].Theta) {
			return fmt.Errorf("class %d: theta %v vs %v", i, a[i].Theta, b[i].Theta)
		}
		if a[i].RI != b[i].RI || a[i].PI != b[i].PI {
			return fmt.Errorf("class %d (%v): rep (%d,%d) vs (%d,%d)", i, a[i].Theta, a[i].RI, a[i].PI, b[i].RI, b[i].PI)
		}
		if a[i].Count != b[i].Count {
			return fmt.Errorf("class %d (%v): count %d vs %d", i, a[i].Theta, a[i].Count, b[i].Count)
		}
	}
	return nil
}

func TestClassesIndexedAgreesOnPaperInstances(t *testing.T) {
	for _, inst := range []*relation.Instance{
		paperdata.Example21(),
		paperdata.FlightHotel(),
		paperdata.SingleTuple(),
	} {
		u := predicate.NewUniverse(inst)
		if err := classesEqual(Classes(inst, u), ClassesIndexed(inst, u)); err != nil {
			t.Fatal(err)
		}
	}
}

func TestClassesIndexedEmptyClassRepresentative(t *testing.T) {
	// An instance where some pairs share no value: the ∅ class must have a
	// valid representative whose T is indeed ∅.
	R := relation.NewRelation(relation.MustSchema("R", "A1"))
	R.MustAddTuple("1")
	R.MustAddTuple("7")
	P := relation.NewRelation(relation.MustSchema("P", "B1"))
	P.MustAddTuple("1")
	P.MustAddTuple("9")
	inst := relation.MustInstance(R, P)
	u := predicate.NewUniverse(inst)
	cs := ClassesIndexed(inst, u)
	var empty *Class
	for _, c := range cs {
		if c.Theta.IsEmpty() {
			empty = c
		}
	}
	if empty == nil {
		t.Fatal("no ∅ class found")
	}
	if empty.Count != 3 { // (1,9), (7,1), (7,9)
		t.Errorf("∅ class count = %d, want 3", empty.Count)
	}
	if empty.RI < 0 || empty.PI < 0 {
		t.Fatalf("∅ class has no representative")
	}
	got := predicate.T(u, inst.R.Tuples[empty.RI], inst.P.Tuples[empty.PI])
	if !got.IsEmpty() {
		t.Errorf("∅ representative has T = %v", got)
	}
}

// diffShapes are the universe shapes of the kernel differential: one mask
// word (up to 3×3 pairs), two words (9×8 = 72) and three (12×11 = 132).
var diffShapes = [][2]int{{1, 1}, {2, 3}, {3, 3}, {9, 8}, {12, 11}}

// diffFeatures tallies the instance features the differential must cover.
type diffFeatures struct {
	deadR, deadP, allPDead, repeated, rOnly int
}

// diffInstance draws an n×m instance for the kernel differential. Values
// come from a small domain, so they repeat inside tuples and a pair often
// shares several; R also draws values P never holds. A delta then deletes
// random live R and P rows — every P row in one draw out of eight — and may
// append rows.
func diffInstance(r *rand.Rand, n, m int, f *diffFeatures) *relation.Instance {
	vals := 1 + r.Intn(4)
	row := func(arity int, rOnly bool) relation.Tuple {
		t := make(relation.Tuple, arity)
		seen := make(map[string]bool, arity)
		for k := range t {
			if rOnly && r.Intn(4) == 0 {
				t[k] = "r" + strconv.Itoa(r.Intn(2))
				f.rOnly++
			} else {
				t[k] = strconv.Itoa(r.Intn(vals))
			}
			if seen[t[k]] {
				f.repeated++
			}
			seen[t[k]] = true
		}
		return t
	}
	attrs := func(prefix string, k int) []string {
		out := make([]string, k)
		for i := range out {
			out[i] = prefix + strconv.Itoa(i+1)
		}
		return out
	}
	R := relation.NewRelation(relation.MustSchema("R", attrs("A", n)...))
	P := relation.NewRelation(relation.MustSchema("P", attrs("B", m)...))
	for i, rows := 0, 1+r.Intn(8); i < rows; i++ {
		R.Tuples = append(R.Tuples, row(n, true))
	}
	for i, rows := 0, 1+r.Intn(12); i < rows; i++ {
		P.Tuples = append(P.Tuples, row(m, false))
	}
	inst := relation.MustInstance(R, P)

	var d relation.Delta
	for ri := range R.Tuples {
		if r.Intn(4) == 0 {
			d.DeleteR = append(d.DeleteR, ri)
		}
	}
	allP := r.Intn(8) == 0
	for pi := range P.Tuples {
		if allP || r.Intn(4) == 0 {
			d.DeleteP = append(d.DeleteP, pi)
		}
	}
	if r.Intn(3) == 0 {
		d.InsertR = []relation.Tuple{row(n, true)}
	}
	if !allP && r.Intn(3) == 0 {
		d.InsertP = []relation.Tuple{row(m, false)}
	}
	next, err := inst.ApplyDelta(d)
	if err != nil {
		panic(err)
	}
	if len(d.DeleteR) > 0 {
		f.deadR++
	}
	if len(d.DeleteP) > 0 {
		f.deadP++
	}
	if next.LiveP() == 0 {
		f.allPDead++
	}
	return next
}

// TestQuickIndexedMatchesFullScan: the class kernel must return exactly
// the list Classes does — Theta, representative (RI, PI) and Count, in
// order — on one-, two- and three-word universes, with deleted R and P
// rows (applied through relation.Delta, every P row dead included),
// values repeated inside a tuple and R values that never occur in P.
func TestQuickIndexedMatchesFullScan(t *testing.T) {
	for _, sh := range diffShapes {
		var feat diffFeatures
		f := func(seed int64) bool {
			r := rand.New(rand.NewSource(seed))
			inst := diffInstance(r, sh[0], sh[1], &feat)
			u := predicate.NewUniverse(inst)
			b := ClassesIndexed(inst, u)
			if err := classesEqual(Classes(inst, u), b); err != nil {
				t.Logf("%d×%d seed %d: %v", sh[0], sh[1], seed, err)
				return false
			}
			return TotalCount(b) == inst.ProductSize()
		}
		if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
			t.Errorf("%d×%d universe: %v", sh[0], sh[1], err)
		}
		if sh == [2]int{1, 1} {
			feat.repeated = -1 // a one-value tuple cannot repeat one
		}
		if feat.deadR == 0 || feat.deadP == 0 || feat.allPDead == 0 || feat.repeated == 0 || feat.rOnly == 0 {
			t.Errorf("%d×%d universe: a feature went untested: %+v", sh[0], sh[1], feat)
		}
	}
}

// TestQuickRepresentativesConsistent: each class representative's T must
// equal the class predicate, and counts must partition the product.
func TestQuickRepresentativesConsistent(t *testing.T) {
	for _, sh := range diffShapes {
		var feat diffFeatures
		f := func(seed int64) bool {
			r := rand.New(rand.NewSource(seed))
			inst := diffInstance(r, sh[0], sh[1], &feat)
			u := predicate.NewUniverse(inst)
			cs := ClassesIndexed(inst, u)
			for _, c := range cs {
				if !inst.RAlive(c.RI) || !inst.PAlive(c.PI) {
					return false
				}
				got := predicate.T(u, inst.R.Tuples[c.RI], inst.P.Tuples[c.PI])
				if !got.Equal(c.Theta) {
					return false
				}
			}
			return TotalCount(cs) == inst.ProductSize()
		}
		if err := quick.Check(f, &quick.Config{MaxCount: 150}); err != nil {
			t.Errorf("%d×%d universe: %v", sh[0], sh[1], err)
		}
	}
}

// TestClassesIndexedMatchesFullScanTPCH runs the differential on the
// paper's five TPC-H joins (multiplier 1, seed 42): R rows that share a
// value with most of P and rows that share one with few, and hundreds of
// classes whose representatives rest on first-touch order.
func TestClassesIndexedMatchesFullScanTPCH(t *testing.T) {
	if testing.Short() {
		t.Skip("full product scans of the TPC-H joins")
	}
	data := tpch.MustGenerate(1, 42)
	for _, j := range tpch.AllJoins() {
		inst, _, err := data.Instance(j)
		if err != nil {
			t.Fatal(err)
		}
		u := predicate.NewUniverse(inst)
		if err := classesEqual(Classes(inst, u), ClassesIndexed(inst, u)); err != nil {
			t.Errorf("%v: %v", j, err)
		}
	}
}

// TestAllocsClassesIndexedPerClass: the class kernel allocates per class
// minted, not per candidate pair. On TPC-H join4 (multiplier 1, seed 42)
// about 360k pairs share a value and fall into 505 classes; a kernel that
// allocated once per pair would exceed the bound hundreds of times over.
func TestAllocsClassesIndexedPerClass(t *testing.T) {
	inst, _, err := tpch.MustGenerate(1, 42).Instance(tpch.Join4)
	if err != nil {
		t.Fatal(err)
	}
	u := predicate.NewUniverse(inst)
	classes := len(ClassesIndexed(inst, u))
	allocs := testing.AllocsPerRun(3, func() { ClassesIndexed(inst, u) })
	if bound := float64(4*classes + 64); allocs > bound {
		t.Errorf("ClassesIndexed makes %.0f allocations for %d classes; want at most %.0f", allocs, classes, bound)
	}
}

// TestIndexMatchesLinearSearch: Index.Of and Index.Find return the class
// a linear search over Theta finds, on universes of one to five words,
// and Of allocates nothing up to four words.
func TestIndexMatchesLinearSearch(t *testing.T) {
	for _, sh := range append(diffShapes, [2]int{17, 16}) {
		var feat diffFeatures
		for seed := int64(0); seed < 40; seed++ {
			r := rand.New(rand.NewSource(seed))
			inst := diffInstance(r, sh[0], sh[1], &feat)
			u := predicate.NewUniverse(inst)
			cs := ClassesIndexed(inst, u)
			x := NewIndex(u, cs)
			for ri, tR := range inst.R.Tuples {
				for pi, tP := range inst.P.Tuples {
					th := predicate.T(u, tR, tP)
					want := -1
					for ci, c := range cs {
						if c.Theta.Equal(th) {
							want = ci
						}
					}
					if got := x.Of(tR, tP); got != want {
						t.Fatalf("%d×%d seed %d: Of(%d,%d) = %d, want %d", sh[0], sh[1], seed, ri, pi, got, want)
					}
					if got := x.Find(th); got != want {
						t.Fatalf("%d×%d seed %d: Find(%v) = %d, want %d", sh[0], sh[1], seed, th, got, want)
					}
				}
			}
			if maskWords(u) > stackWords || inst.R.Len() == 0 || inst.P.Len() == 0 {
				continue
			}
			tR, tP := inst.R.Tuples[0], inst.P.Tuples[0]
			if allocs := testing.AllocsPerRun(10, func() { x.Of(tR, tP) }); allocs != 0 {
				t.Errorf("%d×%d: Index.Of allocates %.1f per call; want 0", sh[0], sh[1], allocs)
			}
		}
	}
}
