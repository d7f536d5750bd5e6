// Package bitset provides a compact, dynamically sized bit set used to
// represent join predicates as subsets of the attribute-pair universe
// Ω = attrs(R) × attrs(P).
//
// A join predicate over relations with n and m attributes is a subset of the
// n·m attribute pairs; for most practical schemas this fits in one machine
// word, but the 3SAT reduction of Theorem 6.1 builds universes of
// (n+1)(2n+1) pairs, so the representation must grow beyond 64 bits.
//
// The zero value of Set is an empty set with capacity zero; sets grow on
// demand. All operations treat missing high words as zero, so sets of
// different capacities interoperate freely.
package bitset

import (
	"math/bits"
	"strconv"
	"strings"
)

const wordBits = 64

// Set is a set of small non-negative integers backed by a []uint64.
// Methods with a pointer receiver may mutate the set; value-receiver
// methods never do.
type Set struct {
	words []uint64
}

// New returns an empty set pre-sized to hold values in [0, n).
func New(n int) Set {
	if n <= 0 {
		return Set{}
	}
	return Set{words: make([]uint64, (n+wordBits-1)/wordBits)}
}

// FromWords returns a set holding a copy of words, in Words() layout.
func FromWords(words []uint64) Set {
	if len(words) == 0 {
		return Set{}
	}
	return Set{words: append([]uint64(nil), words...)}
}

// FromSlice returns a set containing exactly the given elements.
func FromSlice(elems []int) Set {
	var s Set
	for _, e := range elems {
		s.Add(e)
	}
	return s
}

// Universe returns the full set {0, 1, …, n-1}.
func Universe(n int) Set {
	s := New(n)
	for i := 0; i < n; i++ {
		s.Add(i)
	}
	return s
}

func (s *Set) grow(word int) {
	for len(s.words) <= word {
		s.words = append(s.words, 0)
	}
}

// Add inserts i into the set. It panics if i is negative.
func (s *Set) Add(i int) {
	if i < 0 {
		panic("bitset: negative element " + strconv.Itoa(i))
	}
	w := i / wordBits
	s.grow(w)
	s.words[w] |= 1 << uint(i%wordBits)
}

// Remove deletes i from the set; removing an absent element is a no-op.
func (s *Set) Remove(i int) {
	if i < 0 {
		return
	}
	w := i / wordBits
	if w < len(s.words) {
		s.words[w] &^= 1 << uint(i%wordBits)
	}
}

// Contains reports whether i is in the set.
func (s Set) Contains(i int) bool {
	if i < 0 {
		return false
	}
	w := i / wordBits
	return w < len(s.words) && s.words[w]&(1<<uint(i%wordBits)) != 0
}

// Len returns the number of elements in the set.
func (s Set) Len() int {
	n := 0
	for _, w := range s.words {
		n += bits.OnesCount64(w)
	}
	return n
}

// IsEmpty reports whether the set has no elements.
func (s Set) IsEmpty() bool {
	for _, w := range s.words {
		if w != 0 {
			return false
		}
	}
	return true
}

// Clone returns an independent copy of s.
func (s Set) Clone() Set {
	if len(s.words) == 0 {
		return Set{}
	}
	w := make([]uint64, len(s.words))
	copy(w, s.words)
	return Set{words: w}
}

// Equal reports whether s and t contain the same elements.
func (s Set) Equal(t Set) bool {
	long, short := s.words, t.words
	if len(long) < len(short) {
		long, short = short, long
	}
	for i, w := range short {
		if w != long[i] {
			return false
		}
	}
	for _, w := range long[len(short):] {
		if w != 0 {
			return false
		}
	}
	return true
}

// SubsetOf reports whether every element of s is in t (s ⊆ t).
func (s Set) SubsetOf(t Set) bool {
	for i, w := range s.words {
		var tw uint64
		if i < len(t.words) {
			tw = t.words[i]
		}
		if w&^tw != 0 {
			return false
		}
	}
	return true
}

// ProperSubsetOf reports whether s ⊊ t.
func (s Set) ProperSubsetOf(t Set) bool {
	return s.SubsetOf(t) && !s.Equal(t)
}

// Intersect returns s ∩ t as a new set.
func (s Set) Intersect(t Set) Set {
	n := len(s.words)
	if len(t.words) < n {
		n = len(t.words)
	}
	if n == 0 {
		return Set{}
	}
	out := make([]uint64, n)
	for i := 0; i < n; i++ {
		out[i] = s.words[i] & t.words[i]
	}
	return Set{words: out}
}

// Union returns s ∪ t as a new set.
func (s Set) Union(t Set) Set {
	long, short := s.words, t.words
	if len(long) < len(short) {
		long, short = short, long
	}
	if len(long) == 0 {
		return Set{}
	}
	out := make([]uint64, len(long))
	copy(out, long)
	for i, w := range short {
		out[i] |= w
	}
	return Set{words: out}
}

// Diff returns s \ t as a new set.
func (s Set) Diff(t Set) Set {
	if len(s.words) == 0 {
		return Set{}
	}
	out := make([]uint64, len(s.words))
	copy(out, s.words)
	for i := range out {
		if i < len(t.words) {
			out[i] &^= t.words[i]
		}
	}
	return Set{words: out}
}

// IntersectInPlace replaces s with s ∩ t.
func (s *Set) IntersectInPlace(t Set) {
	for i := range s.words {
		if i < len(t.words) {
			s.words[i] &= t.words[i]
		} else {
			s.words[i] = 0
		}
	}
}

// UnionInPlace replaces s with s ∪ t.
func (s *Set) UnionInPlace(t Set) {
	s.grow(len(t.words) - 1)
	for i, w := range t.words {
		s.words[i] |= w
	}
}

// Intersects reports whether s ∩ t is non-empty.
func (s Set) Intersects(t Set) bool {
	n := len(s.words)
	if len(t.words) < n {
		n = len(t.words)
	}
	for i := 0; i < n; i++ {
		if s.words[i]&t.words[i] != 0 {
			return true
		}
	}
	return false
}

// Elems returns the elements of s in increasing order.
func (s Set) Elems() []int {
	out := make([]int, 0, s.Len())
	for wi, w := range s.words {
		for w != 0 {
			b := bits.TrailingZeros64(w)
			out = append(out, wi*wordBits+b)
			w &= w - 1
		}
	}
	return out
}

// ForEach calls fn for each element in increasing order; if fn returns
// false the iteration stops early.
func (s Set) ForEach(fn func(i int) bool) {
	for wi, w := range s.words {
		for w != 0 {
			b := bits.TrailingZeros64(w)
			if !fn(wi*wordBits + b) {
				return
			}
			w &= w - 1
		}
	}
}

// Words returns the set's backing words, shared and read-only. Their
// number follows the set's capacity, not its universe: missing high words
// are zero, which span operations over a fixed width must honour.
func (s Set) Words() []uint64 { return s.words }

// CopyWords writes the set's first len(dst) words into dst, zero-padding
// beyond the set's capacity. Hot paths use it to lay predicates out in flat
// []uint64 arenas.
func (s Set) CopyWords(dst []uint64) {
	n := copy(dst, s.words)
	for i := n; i < len(dst); i++ {
		dst[i] = 0
	}
}

// IntersectInto replaces dst with a ∩ b, reusing dst's backing array when
// it is large enough — the allocation-free counterpart of Intersect.
// Aliasing dst with a or b is safe.
func IntersectInto(dst *Set, a, b Set) {
	n := len(a.words)
	if len(b.words) < n {
		n = len(b.words)
	}
	if cap(dst.words) < n {
		dst.words = make([]uint64, n)
	} else {
		dst.words = dst.words[:n]
	}
	for i := 0; i < n; i++ {
		dst.words[i] = a.words[i] & b.words[i]
	}
}

// AppendKey appends the bytes of Key to dst and returns the extended
// slice: a canonical, capacity-independent encoding usable as (part of) a
// map key via string(dst) without building intermediate strings.
func (s Set) AppendKey(dst []byte) []byte {
	n := len(s.words)
	for n > 0 && s.words[n-1] == 0 {
		n--
	}
	for i := 0; i < n; i++ {
		w := s.words[i]
		for j := 0; j < 8; j++ {
			dst = append(dst, byte(w>>(8*j)))
		}
	}
	return dst
}

// Key returns a string that is equal for equal sets, usable as a map key.
// Trailing zero words are excluded so capacity does not affect the key.
func (s Set) Key() string {
	n := len(s.words)
	for n > 0 && s.words[n-1] == 0 {
		n--
	}
	if n == 0 {
		return ""
	}
	var b strings.Builder
	b.Grow(n * 8)
	for i := 0; i < n; i++ {
		w := s.words[i]
		for j := 0; j < 8; j++ {
			b.WriteByte(byte(w >> (8 * j)))
		}
	}
	return b.String()
}

// String renders the set as "{1, 5, 9}".
func (s Set) String() string {
	var b strings.Builder
	b.WriteByte('{')
	first := true
	s.ForEach(func(i int) bool {
		if !first {
			b.WriteString(", ")
		}
		first = false
		b.WriteString(strconv.Itoa(i))
		return true
	})
	b.WriteByte('}')
	return b.String()
}
