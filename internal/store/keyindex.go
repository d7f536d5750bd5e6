package store

import (
	"iter"
	"slices"
	"strings"
)

// indexChunk is the most keys one chunk of a keyIndex holds; a chunk that
// outgrows it splits in two.
const indexChunk = 1024

// keyIndex is the sorted key set both backends scan by prefix. It is kept
// sorted on every insert and delete, touching only the one chunk a key
// lands in, so a scan after a write costs a binary search instead of a
// re-sort of the whole store.
//
// The keys live in sorted chunks of at most indexChunk keys, located by
// binary search over each chunk's last key (the layout of Python's
// sortedcontainers). A new or deleted key costs O(log n + indexChunk), so
// a bulk load in random order stays O(n log n + n·indexChunk) instead of
// the O(n²) of one flat sorted slice. Every chunk is non-empty, and each
// chunk's keys sort before the next chunk's.
type keyIndex struct {
	chunks [][]string
}

// newKeyIndex builds an index from keys in any order with one sort; keys
// must be distinct. It takes ownership of the slice.
func newKeyIndex(keys []string) keyIndex {
	slices.Sort(keys)
	var x keyIndex
	for len(keys) > 0 {
		n := min(len(keys), indexChunk/2)
		x.chunks = append(x.chunks, keys[:n:n])
		keys = keys[n:]
	}
	return x
}

// locate returns the chunk that holds k or would take it: the first chunk
// whose last key is ≥ k, or the last chunk when every key is below k. The
// index must not be empty.
func (x *keyIndex) locate(k string) int {
	i, _ := slices.BinarySearchFunc(x.chunks, k, func(c []string, k string) int {
		return strings.Compare(c[len(c)-1], k)
	})
	return min(i, len(x.chunks)-1)
}

// insert adds k; it is a no-op when k is already there.
func (x *keyIndex) insert(k string) {
	if len(x.chunks) == 0 {
		x.chunks = [][]string{{k}}
		return
	}
	i := x.locate(k)
	c := x.chunks[i]
	j, found := slices.BinarySearch(c, k)
	if found {
		return
	}
	c = slices.Insert(c, j, k)
	if len(c) <= indexChunk {
		x.chunks[i] = c
		return
	}
	half := len(c) / 2
	hi := append(make([]string, 0, indexChunk), c[half:]...)
	clear(c[half:])
	x.chunks[i] = c[:half]
	x.chunks = slices.Insert(x.chunks, i+1, hi)
}

// delete removes k; it is a no-op when k is not there. A chunk that shrinks
// below a quarter of indexChunk merges into a neighbour it fits in, so
// deletes cannot leave behind a long run of tiny chunks.
func (x *keyIndex) delete(k string) {
	if len(x.chunks) == 0 {
		return
	}
	i := x.locate(k)
	c := x.chunks[i]
	j, found := slices.BinarySearch(c, k)
	if !found {
		return
	}
	c = slices.Delete(c, j, j+1)
	x.chunks[i] = c
	if len(c) >= indexChunk/4 {
		return
	}
	switch {
	case len(c) == 0:
	case i+1 < len(x.chunks) && len(c)+len(x.chunks[i+1]) <= indexChunk:
		x.chunks[i+1] = append(c, x.chunks[i+1]...)
	case i > 0 && len(x.chunks[i-1])+len(c) <= indexChunk:
		x.chunks[i-1] = append(x.chunks[i-1], c...)
	default:
		return
	}
	x.chunks = slices.Delete(x.chunks, i, i+1)
}

// withPrefix returns a copy of the keys that start with prefix, in
// ascending order: O(log n + m) for m matches.
func (x *keyIndex) withPrefix(prefix string) []string {
	if len(x.chunks) == 0 {
		return nil
	}
	i := x.locate(prefix)
	j, _ := slices.BinarySearch(x.chunks[i], prefix)
	var out []string
	for ; i < len(x.chunks); i, j = i+1, 0 {
		for _, k := range x.chunks[i][j:] {
			if !strings.HasPrefix(k, prefix) {
				return out
			}
			out = append(out, k)
		}
	}
	return out
}

// all yields every key in ascending order.
func (x *keyIndex) all() iter.Seq[string] {
	return func(yield func(string) bool) {
		for _, c := range x.chunks {
			for _, k := range c {
				if !yield(k) {
					return
				}
			}
		}
	}
}
