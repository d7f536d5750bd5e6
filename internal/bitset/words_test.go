package bitset

import (
	"math/rand"
	"slices"
	"testing"
)

func TestCopyWordsRoundTrip(t *testing.T) {
	r := rand.New(rand.NewSource(1))
	for trial := 0; trial < 50; trial++ {
		n := 1 + r.Intn(200)
		s := randSet(r, n)
		dst := make([]uint64, (n+63)/64)
		for i := range dst {
			dst[i] = ^uint64(0) // must be overwritten, including zero-padding
		}
		s.CopyWords(dst)
		for i := 0; i < n; i++ {
			got := dst[i/64]&(1<<uint(i%64)) != 0
			if got != s.Contains(i) {
				t.Fatalf("n=%d bit %d: span %v, set %v", n, i, got, s.Contains(i))
			}
		}
	}
}

func TestIntersectIntoMatchesIntersect(t *testing.T) {
	r := rand.New(rand.NewSource(2))
	var dst Set
	for trial := 0; trial < 100; trial++ {
		a := randSet(r, 1+r.Intn(150))
		b := randSet(r, 1+r.Intn(150))
		IntersectInto(&dst, a, b)
		if !dst.Equal(a.Intersect(b)) {
			t.Fatalf("IntersectInto(%v, %v) = %v, want %v", a, b, dst, a.Intersect(b))
		}
	}
	// Aliasing dst with an operand is allowed.
	a := FromSlice([]int{1, 5, 70})
	b := FromSlice([]int{5, 70, 100})
	IntersectInto(&a, a, b)
	if !a.Equal(FromSlice([]int{5, 70})) {
		t.Errorf("aliased IntersectInto = %v", a)
	}
	// Steady-state reuse allocates nothing.
	x := randSet(r, 128)
	y := randSet(r, 128)
	IntersectInto(&dst, x, y)
	if allocs := testing.AllocsPerRun(100, func() { IntersectInto(&dst, x, y) }); allocs != 0 {
		t.Errorf("IntersectInto allocates %.1f per call; want 0 steady-state", allocs)
	}
}

// TestSpanOpsMatchSetOps: the shared word view holds exactly the set's
// elements, and CopyWords pads it with zeros past the set's capacity.
func TestSpanOpsMatchSetOps(t *testing.T) {
	r := rand.New(rand.NewSource(3))
	for trial := 0; trial < 100; trial++ {
		n := 1 + r.Intn(190)
		a := randSet(r, n)
		ws := a.Words()
		for i := 0; i < len(ws)*64; i++ {
			if got := ws[i/64]&(1<<uint(i%64)) != 0; got != a.Contains(i) {
				t.Fatalf("n=%d bit %d: Words %v, Contains %v", n, i, got, a.Contains(i))
			}
		}
		dst := make([]uint64, len(ws)+2)
		a.CopyWords(dst)
		if !slices.Equal(dst[:len(ws)], ws) || dst[len(ws)] != 0 || dst[len(ws)+1] != 0 {
			t.Fatalf("n=%d: CopyWords %x, Words %x", n, dst, ws)
		}
	}
}

func TestAppendKeyMatchesKey(t *testing.T) {
	r := rand.New(rand.NewSource(4))
	for trial := 0; trial < 60; trial++ {
		s := randSet(r, 1+r.Intn(200))
		if got := string(s.AppendKey(nil)); got != s.Key() {
			t.Fatalf("AppendKey = %q, Key = %q", got, s.Key())
		}
	}
	// Capacity must not leak into the key (trailing zero words trimmed).
	a := FromSlice([]int{3})
	b := New(500)
	b.Add(3)
	if string(a.AppendKey(nil)) != string(b.AppendKey(nil)) {
		t.Error("AppendKey differs for equal sets of different capacity")
	}
	// Appends after a prefix.
	pre := []byte("k|")
	out := a.AppendKey(pre)
	if string(out[:2]) != "k|" || string(out[2:]) != a.Key() {
		t.Errorf("AppendKey with prefix = %q", out)
	}
}
