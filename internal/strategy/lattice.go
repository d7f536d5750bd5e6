package strategy

import (
	"math/bits"
	"slices"
)

// latticeTable is an open-addressed hash table from W-word lattice nodes
// below T(S+) to the two weights the lookahead reads (see engine.go): pos,
// the weight certain under (t, N), and neg, the weight of {m : T∩θₘ ⊆ t}.
// Keys are stored in one flat arena, W words per slot, and probed
// linearly from a multiplicative hash, as the class kernel keys T masks.
//
// A table is reused from decision to decision: reset starts a new
// generation, and a slot belongs to the current decision only while its
// stamp equals the generation, so a reset costs nothing and no key of an
// earlier decision — whose negatives, and so whose weights, may differ —
// is ever found again. The table keeps its largest size, so a pooled
// table allocates only when a decision has more distinct keys than every
// earlier one it served.
type latticeTable struct {
	w     int
	shift uint     // 64 − log2(slot count): the home slot is the hash's top bits
	gen   uint32   // the current decision's stamp
	stamp []uint32 // slot s is occupied iff stamp[s] == gen
	keys  []uint64 // w words per slot
	pos   []int64
	neg   []int64
	// slots lists the occupied slots in insertion order; the fill walks it.
	slots []int32
}

// minLatticeSlots is the smallest table; sizes are powers of two.
const minLatticeSlots = 16

// reset empties t for a decision over w-word keys, expecting about hint
// distinct keys: the table holds at least 2·hint slots, so it stays at most
// half full until the keys outnumber the hint.
func (t *latticeTable) reset(w, hint int) {
	n := max(minLatticeSlots, len(t.stamp))
	for n < 2*hint {
		n *= 2
	}
	if n > len(t.stamp) || n*w > cap(t.keys) {
		t.alloc(n, w)
	} else {
		t.w = w
		t.keys = t.keys[:n*w]
	}
	t.slots = t.slots[:0]
	t.gen++
	if t.gen == 0 { // the stamps wrapped: forget every older generation
		clear(t.stamp)
		t.gen = 1
	}
}

// alloc gives t n empty slots of w words.
func (t *latticeTable) alloc(n, w int) {
	t.w = w
	t.shift = uint(64 - bits.TrailingZeros(uint(n)))
	t.stamp = make([]uint32, n)
	t.keys = make([]uint64, n*w)
	t.pos = make([]int64, n)
	t.neg = make([]int64, n)
	t.gen = 0
}

// home returns key's first probe slot.
func (t *latticeTable) home(key []uint64) int {
	var h uint64
	for _, x := range key {
		h = (h ^ x) * 0x9E3779B97F4A7C15
		h ^= h >> 32
	}
	return int((h * 0x9E3779B97F4A7C15) >> t.shift)
}

// insert adds key if it is new, growing the table past half full, and
// returns its slot.
func (t *latticeTable) insert(key []uint64) int32 {
	if s := t.find(key); s >= 0 {
		return s
	}
	if 2*(len(t.slots)+1) > len(t.stamp) {
		t.grow()
	}
	s := t.free(key)
	t.stamp[s] = t.gen
	copy(t.keys[int(s)*t.w:], key)
	t.slots = append(t.slots, s)
	return s
}

// find returns key's slot, or −1 when the current decision has no such
// key.
func (t *latticeTable) find(key []uint64) int32 {
	mask := len(t.stamp) - 1
	for s := t.home(key); t.stamp[s] == t.gen; s = (s + 1) & mask {
		if slices.Equal(t.keys[s*t.w:(s+1)*t.w], key) {
			return int32(s)
		}
	}
	return -1
}

// free returns the first unoccupied slot on key's probe sequence.
func (t *latticeTable) free(key []uint64) int32 {
	mask := len(t.stamp) - 1
	s := t.home(key)
	for t.stamp[s] == t.gen {
		s = (s + 1) & mask
	}
	return int32(s)
}

// grow doubles the table and re-inserts the current decision's keys, with
// their weights, keeping their insertion order.
func (t *latticeTable) grow() {
	old := *t
	t.alloc(2*len(old.stamp), old.w)
	t.gen = 1
	// Rewriting the slot list in place is safe: entry i is read before
	// the i-th append overwrites it.
	t.slots = old.slots[:0]
	for _, os := range old.slots {
		key := old.keys[int(os)*old.w : int(os+1)*old.w]
		s := t.free(key)
		t.stamp[s] = t.gen
		copy(t.keys[int(s)*t.w:], key)
		t.pos[s], t.neg[s] = old.pos[os], old.neg[os]
		t.slots = append(t.slots, s)
	}
}
