package product

import (
	"slices"

	"repro/internal/bitset"
	"repro/internal/predicate"
	"repro/internal/relation"
)

// A T mask is T(tR, tP) laid out as W = ⌈|Ω|/64⌉ words, the pair id
// i·m + j of (A_i, B_j) at bit id%64 of word id/64 — the bitset layout, so
// a class Theta is its mask. One mask table keys every T this package
// computes: the class kernel and Index both look T up by its words, never
// by a string built per pair.

// maskWords returns W, the number of 64-bit words a T mask over u spans.
func maskWords(u *predicate.Universe) int { return (u.Size() + 63) / 64 }

// tMask writes T(tR, tP) into dst, which must hold maskWords(u) words. It
// allocates nothing.
func tMask(u *predicate.Universe, tR, tP relation.Tuple, dst []uint64) {
	clear(dst)
	n, m := u.RSchema.Arity(), u.PSchema.Arity()
	for i := 0; i < n; i++ {
		v := tR[i]
		for j := 0; j < m; j++ {
			if tP[j] == v {
				id := i*m + j
				dst[id>>6] |= 1 << (id & 63)
			}
		}
	}
}

// stackWords bounds the masks Index.Of keeps on the stack (|Ω| ≤ 256);
// wider universes take one allocation per lookup.
const stackWords = 4

// maskTable maps W-word masks to slots: through a uint64 key at W = 1, and
// through the words' bytes above that. A lookup allocates nothing (the
// caller lends the byte buffer); an insert allocates only a new key.
type maskTable struct {
	w    int
	one  map[uint64]int32
	many map[string]int32
}

func newMaskTable(w, hint int) maskTable {
	if w == 1 {
		return maskTable{w: w, one: make(map[uint64]int32, hint)}
	}
	return maskTable{w: w, many: make(map[string]int32, hint)}
}

// maskKey appends the bytes of mask to kb[:0].
func maskKey(kb []byte, mask []uint64) []byte {
	kb = kb[:0]
	for _, x := range mask {
		kb = append(kb, byte(x), byte(x>>8), byte(x>>16), byte(x>>24),
			byte(x>>32), byte(x>>40), byte(x>>48), byte(x>>56))
	}
	return kb
}

// get returns mask's slot; kb is scratch for the byte key (W > 1).
func (t *maskTable) get(mask []uint64, kb []byte) (int32, bool) {
	if t.w == 1 {
		s, ok := t.one[mask[0]]
		return s, ok
	}
	s, ok := t.many[string(maskKey(kb, mask))]
	return s, ok
}

// put maps mask to slot, replacing any earlier slot.
func (t *maskTable) put(mask []uint64, slot int32, kb []byte) {
	if t.w == 1 {
		t.one[mask[0]] = slot
		return
	}
	t.many[string(maskKey(kb, mask))] = slot
}

// thetaOf copies a mask into a fresh class predicate.
func thetaOf(mask []uint64) predicate.Pred {
	return predicate.Pred{Set: bitset.FromWords(mask)}
}

// Index finds the T-class of a product pair: a mask table from every
// class's Theta to its position in the list it was built from. It is
// read-only once built, so any number of goroutines may share it.
type Index struct {
	u *predicate.Universe
	t maskTable
}

// NewIndex indexes cs, the T-classes of an instance over u. When two
// classes share a Theta, the later one wins.
func NewIndex(u *predicate.Universe, cs []*Class) *Index {
	w := maskWords(u)
	x := &Index{u: u, t: newMaskTable(w, len(cs))}
	mask := make([]uint64, w)
	kb := make([]byte, 0, 8*w)
	for ci, c := range cs {
		c.Theta.Set.CopyWords(mask)
		x.t.put(mask, int32(ci), kb)
	}
	return x
}

// Of returns the index of the class whose Theta is T(tR, tP), or -1 when
// no class has it. It allocates nothing for |Ω| ≤ 256.
func (x *Index) Of(tR, tP relation.Tuple) int {
	var buf [stackWords]uint64
	var kb [8 * stackWords]byte
	var mask []uint64
	if w := x.t.w; w <= stackWords {
		mask = buf[:w]
	} else {
		mask = make([]uint64, w)
	}
	tMask(x.u, tR, tP, mask)
	s, ok := x.t.get(mask, kb[:])
	if !ok {
		return -1
	}
	return int(s)
}

// Find returns the index of the class whose Theta equals theta, or -1.
func (x *Index) Find(theta predicate.Pred) int {
	mask := make([]uint64, x.t.w)
	theta.Set.CopyWords(mask)
	s, ok := x.t.get(mask, nil)
	if !ok {
		return -1
	}
	return int(s)
}

// Postings index the live P rows of one instance version by value: P's
// values are interned to dense ids, and rows[start[k]:start[k+1]] lists,
// ascending, the live P rows holding value id v at attribute j, k = v·m + j.
// They are read-only once built, so any number of Scans may share them.
type Postings struct {
	u     *predicate.Universe
	nP    int
	ids   map[relation.Value]int32
	start []int32
	rows  []int32
}

// NewPostings builds the value postings of inst's live P rows.
func NewPostings(inst *relation.Instance, u *predicate.Universe) *Postings {
	m := u.PSchema.Arity()
	nP := inst.P.Len()
	// Intern P's values; cell holds each live P cell's value id, so the
	// postings pass below needs no second map lookup.
	ids := make(map[relation.Value]int32)
	cell := make([]int32, nP*m)
	for pi, tP := range inst.P.Tuples {
		if !inst.PAlive(pi) {
			continue
		}
		for j := 0; j < m; j++ {
			id, ok := ids[tP[j]]
			if !ok {
				id = int32(len(ids))
				ids[tP[j]] = id
			}
			cell[pi*m+j] = id
		}
	}
	start := make([]int32, len(ids)*m+1)
	for pi := 0; pi < nP; pi++ {
		if inst.PAlive(pi) {
			for j := 0; j < m; j++ {
				start[int(cell[pi*m+j])*m+j+1]++
			}
		}
	}
	for k := 1; k < len(start); k++ {
		start[k] += start[k-1]
	}
	rows := make([]int32, start[len(start)-1])
	fill := slices.Clone(start[:len(start)-1])
	for pi := 0; pi < nP; pi++ {
		if inst.PAlive(pi) {
			for j := 0; j < m; j++ {
				k := int(cell[pi*m+j])*m + j
				rows[fill[k]] = int32(pi)
				fill[k]++
			}
		}
	}
	return &Postings{u: u, nP: nP, ids: ids, start: start, rows: rows}
}

// A Scan computes, one R row at a time, the T masks of the live P rows
// sharing a value with it. It is scratch, not safe for concurrent use.
type Scan struct {
	p     *Postings
	w     int
	masks []uint64 // P row pi's mask is masks[pi·W : pi·W+W]
	stamp []int32  // the Row call (cur) that last touched each P row
	cur   int32
	cands []int32
}

// NewScan returns a Scan over the postings.
func (p *Postings) NewScan() *Scan {
	w := maskWords(p.u)
	return &Scan{p: p, w: w, masks: make([]uint64, p.nP*w), stamp: make([]int32, p.nP)}
}

// Row ORs each posting of tR's values into its rows' masks and returns the
// rows touched, the candidates, in first-touch order; every other live
// pair (tR, P[pi]) has T = ∅. The result, which the caller may reorder,
// and the masks stay valid until the next Row.
func (s *Scan) Row(tR relation.Tuple) []int32 {
	for _, pi := range s.cands {
		clear(s.Mask(pi))
	}
	s.cur++
	s.cands = s.cands[:0]
	p := s.p
	n, m := p.u.RSchema.Arity(), p.u.PSchema.Arity()
	for i := 0; i < n; i++ {
		id, ok := p.ids[tR[i]]
		if !ok {
			continue
		}
		for j := 0; j < m; j++ {
			k := int(id)*m + j
			bit := i*m + j
			wi, b := bit>>6, uint64(1)<<(bit&63)
			for _, pi := range p.rows[p.start[k]:p.start[k+1]] {
				if s.stamp[pi] != s.cur {
					s.stamp[pi] = s.cur
					s.cands = append(s.cands, pi)
				}
				s.masks[int(pi)*s.w+wi] |= b
			}
		}
	}
	return s.cands
}

// Mask returns T(tR, P[pi]) of the last Row's tR as W words; it is all
// zero unless pi is a candidate. Callers must not mutate it.
func (s *Scan) Mask(pi int32) []uint64 {
	return s.masks[int(pi)*s.w : int(pi)*s.w+s.w]
}

// Touched reports whether P row pi is a candidate of the last Row.
func (s *Scan) Touched(pi int) bool { return s.stamp[pi] == s.cur }

// ClassesIndexed groups the product into T-classes, touching only the
// pairs that share a value. The result equals Classes element for element
// (Theta, representative, count and order); only the work differs.
//
// A Scan yields each live R row's candidates and their masks; the other
// pairs are credited to the ∅ class in bulk. Each candidate's mask is
// looked up in the mask table; only a minted class allocates.
//
// Candidates are visited in first-touch order, which needs no sort to
// pick the representatives Classes picks. A row is first touched by the
// first pair (A_i, B_j) of its T in the (i, j) loop order, so rows with
// equal T are first touched by one posting, which lists them in ascending
// order: within an R row, a class's first visited P row is its lowest.
func ClassesIndexed(inst *relation.Instance, u *predicate.Universe) []*Class {
	w := maskWords(u)
	nP := inst.P.Len()
	nPLive := inst.LiveP()
	scan := NewPostings(inst, u).NewScan()
	table := newMaskTable(w, 64)
	kb := make([]byte, 0, 8*w)
	var order []*Class
	empty := &Class{Theta: predicate.Empty(), RI: -1, PI: -1}

	for ri, tR := range inst.R.Tuples {
		if !inst.RAlive(ri) {
			continue
		}
		cands := scan.Row(tR)
		for _, pi := range cands {
			mask := scan.Mask(pi)
			if s, ok := table.get(mask, kb); ok {
				order[s].Count++
			} else {
				table.put(mask, int32(len(order)), kb)
				order = append(order, &Class{Theta: thetaOf(mask), RI: ri, PI: int(pi), Count: 1})
			}
		}
		// Every live non-candidate pair has T = ∅.
		if rest := int64(nPLive - len(cands)); rest > 0 {
			if empty.Count == 0 {
				// First occurrence: the first live non-candidate P row.
				empty.RI = ri
				for pi := 0; pi < nP; pi++ {
					if inst.PAlive(pi) && !scan.Touched(pi) {
						empty.PI = pi
						break
					}
				}
			}
			empty.Count += rest
		}
	}
	if empty.Count > 0 {
		order = append(order, empty)
	}
	sortClasses(order)
	return order
}
