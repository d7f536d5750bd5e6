// Package policy is a shared, memory-bounded cache of strategy decisions:
// the decision tree every deterministic session walks.
//
// For a fixed instance and strategy configuration the paper's interaction
// is fully deterministic — given the same answer prefix, BU/TD/L1S/L2S
// (and seeded RND) always pick the same next T-class — so every session
// over an instance is a walk down one binary decision tree. The expensive
// per-question work (the entropy¹/entropy² lookahead of L1S/L2S, the
// NP-complete CONS⋉ informativeness scans of semijoin sessions) is a pure
// function of the answer prefix, and this package memoizes it: the first
// session to reach a prefix pays for the strategy, publishes its choice,
// and every later session resolves the same prefix with a map lookup.
//
// # Keying
//
// Trees are keyed by (instance id, instance version, strategy id, seed).
// The version is part of the key because the tree's decisions are a
// function of the instance's T-classes, which a data delta changes: after
// an ingest, sessions on the new version look up a fresh tree and the old
// version's nodes become unreachable, so the ingest drops them all with
// DropVersion. A miss recomputes, so dropping is always sound. The seed is
// part of the key because RND's walk depends on it; the parallelism knob
// (Lookahead.Workers) is deliberately NOT part of the key because the
// worker-pool reduction applies the exact serial selection rule, making
// strategy picks bit-identical at any parallelism — a choice computed with
// 16 workers serves a session running with 1. Within a tree, nodes are
// keyed by the encoded answer prefix (the ordered (class, label) pairs
// recorded so far) plus the RND stream position at fetch time; the
// position is 0 for the deterministic strategies, and for RND it keeps
// sessions whose streams diverged (extra fetches, Undo) on separate,
// internally consistent node variants instead of poisoning each other.
//
// # Bounds and concurrency
//
// The cache holds at most MaxBytes (approximate, counted per node) and
// evicts least-recently-used nodes first. Eviction is always safe: a
// session that misses — because the node was evicted mid-walk, or was
// never computed — falls back to live strategy computation and republishes.
// With a second tier attached (SetTier2, backed by internal/store),
// publishes write through to the tier and an LRU miss pages the stored
// subtree back in by prefix scan — so a tree far larger than MaxBytes
// serves warm from the LRU working set, and warm trees survive restarts.
// All methods are safe for concurrent use; published Node values are
// immutable (callers must not mutate Pivots).
package policy

import (
	"container/list"
	"encoding/binary"
	"sync"
)

// Key identifies one decision tree: one instance version under one
// strategy configuration. Instance must uniquely name the instance's data
// (the service registry's names do); Version is the instance version the
// tree's decisions were computed on (0 for static instances); Strategy is
// the strategy id (or a mode marker such as "⋉" for semijoin sessions,
// whose scan-order picks ignore the strategy); Seed matters only for
// strategies that draw randomness and should be normalized to 0 for the
// rest, so their sessions share one tree regardless of the configured seed.
type Key struct {
	Instance string
	Version  int64
	Strategy string
	Seed     int64
}

// Node is one memoized decision: what the strategy chose at an answer
// prefix, and which further pairwise-informative picks a batch fetch
// selected.
type Node struct {
	// Chosen is the strategy's pick (a class index for join sessions, a row
	// index for semijoin sessions); -1 records that no informative question
	// remains at this prefix.
	Chosen int
	// Pivots are the additional batch picks beyond Chosen, in selection
	// order. The greedy batch selection is prefix-stable: the picks for a
	// smaller k are a prefix of the picks for a larger one, so a node
	// computed for k serves every request up to 1+len(Pivots).
	Pivots []int
	// Complete reports that the batch scan exhausted all candidates: the
	// node serves any k, not just k ≤ 1+len(Pivots).
	Complete bool
	// RNGAfter is the RND stream position after the pick was drawn (equal
	// to the lookup position for deterministic strategies). A session
	// serving this node fast-forwards its stream here, so later misses
	// draw from the same position a live walk would have reached.
	RNGAfter uint64
}

// AppendEdge appends one answered question to an encoded prefix: the index
// (class or row) and its label. Sessions build node prefixes by folding
// their transcript through this.
func AppendEdge(prefix []byte, index int, positive bool) []byte {
	v := uint64(index) << 1
	if positive {
		v |= 1
	}
	return binary.AppendUvarint(prefix, v)
}

// Tier2 is an optional second cache tier behind the in-RAM LRU — a
// persistent store of published nodes. On an LRU miss the cache pages the
// missing node (and, as readahead, its subtree) in from the tier; on
// Publish it writes through. A tier is strictly a cache of published
// decisions: losing it costs recomputation, never correctness, and a node
// it returns must be byte-identical to the one published (the store's
// codec round-trips exactly).
//
// Implementations must be safe for concurrent use and must not call back
// into the Cache (the insert callback is the only channel back in).
//
// Fault-tolerance contract: a tier must absorb every backend failure and
// degrade to cache misses — Load returns false, PageIn streams nothing,
// Save drops the node. It must never block the walk on a sick backend
// (wrap slow or failing stores in a circuit breaker) and never surface a
// half-decoded node: corrupt bytes are a miss, and the walk recomputes
// the decision live — slower, never wrong.
type Tier2 interface {
	// Load returns the node stored for exactly (k, prefix, rngPos).
	Load(k Key, prefix []byte, rngPos uint64) (Node, bool)
	// PageIn streams the stored subtree rooted at the answer prefix —
	// the node at prefix and its descendants — into insert, stopping when
	// insert returns false or the implementation's own readahead bound is
	// reached.
	PageIn(k Key, prefix []byte, insert func(prefix []byte, rngPos uint64, n Node) bool)
	// Save persists one published node; failures must be absorbed (the
	// tier is a cache, the in-RAM copy already serves).
	Save(k Key, prefix []byte, rngPos uint64, n Node)
}

// nodeKey addresses one node: the tree, the answer prefix, and the RND
// stream position at fetch time (0 for deterministic strategies).
type nodeKey struct {
	tree   Key
	prefix string
	rngPos uint64
}

// entry is one resident node with its LRU bookkeeping.
type entry struct {
	key  nodeKey
	node Node
	size int64
}

// entryOverhead approximates the fixed per-node cost: the map bucket, the
// list element, and the entry struct itself.
const entryOverhead = 160

func (e *entry) computeSize() {
	e.size = entryOverhead +
		int64(len(e.key.prefix)) +
		int64(len(e.key.tree.Instance)+len(e.key.tree.Strategy)) +
		int64(8*len(e.node.Pivots))
}

// Stats is a point-in-time view of the cache's counters.
type Stats struct {
	// Hits and Misses count Lookup outcomes; Publishes counts nodes
	// inserted or overwritten; Evictions counts nodes dropped to stay under
	// MaxBytes.
	Hits, Misses, Publishes, Evictions uint64
	// Tier2Hits counts lookups that missed the LRU but were resolved from
	// the second tier; PageIns counts nodes the tier streamed into the LRU
	// (each tier-2 hit pages in at least the node itself, usually plus
	// readahead).
	Tier2Hits, PageIns uint64
	// Invalidated counts nodes DropVersion dropped.
	Invalidated uint64
	// Nodes and Bytes are the current residency; MaxBytes is the configured
	// bound (0 = unbounded).
	Nodes    int
	Bytes    int64
	MaxBytes int64
}

// Cache is the shared decision-tree cache. The zero value is not usable;
// construct with New.
type Cache struct {
	maxBytes int64
	tier2    Tier2 // set once before use via SetTier2; nil = LRU only

	mu    sync.Mutex
	lru   *list.List // of *entry; front = most recently used
	nodes map[nodeKey]*list.Element
	bytes int64

	hits, misses, publishes, evictions uint64
	tier2Hits, pageIns                 uint64
	invalidated                        uint64
}

// New returns an empty cache bounded to roughly maxBytes of node state;
// maxBytes ≤ 0 means unbounded.
func New(maxBytes int64) *Cache {
	return &Cache{
		maxBytes: maxBytes,
		lru:      list.New(),
		nodes:    make(map[nodeKey]*list.Element),
	}
}

// SetTier2 attaches a persistent second tier behind the LRU. It must be
// called before the cache is shared across goroutines (wiring happens at
// construction time in practice); passing nil detaches.
func (c *Cache) SetTier2(t Tier2) { c.tier2 = t }

// Lookup returns the node published for the prefix under the tree key and
// RND position, marking it most recently used. On an LRU miss with a
// second tier attached, the stored subtree rooted at the prefix is paged
// into the LRU (readahead for the walk that is about to continue) and the
// lookup retried. The returned Node (and its Pivots slice) must be treated
// as immutable.
func (c *Cache) Lookup(k Key, prefix []byte, rngPos uint64) (Node, bool) {
	nk := nodeKey{tree: k, prefix: string(prefix), rngPos: rngPos}
	c.mu.Lock()
	if el, ok := c.nodes[nk]; ok {
		c.hits++
		c.lru.MoveToFront(el)
		n := el.Value.(*entry).node
		c.mu.Unlock()
		return n, true
	}
	if c.tier2 == nil {
		c.misses++
		c.mu.Unlock()
		return Node{}, false
	}
	c.mu.Unlock()
	// Page the subtree in without holding the lock — the tier reads disk.
	c.tier2.PageIn(k, prefix, func(p []byte, rp uint64, n Node) bool {
		c.insertPaged(nodeKey{tree: k, prefix: string(p), rngPos: rp}, n)
		return true
	})
	c.mu.Lock()
	if el, ok := c.nodes[nk]; ok {
		c.tier2Hits++
		c.lru.MoveToFront(el)
		n := el.Value.(*entry).node
		c.mu.Unlock()
		return n, true
	}
	c.mu.Unlock()
	// The readahead bound can cut a scan off before the exact node (key
	// order interleaves RNG-position variants); one exact load settles it.
	if n, ok := c.tier2.Load(k, prefix, rngPos); ok {
		c.insertPaged(nk, n)
		c.mu.Lock()
		c.tier2Hits++
		c.mu.Unlock()
		return n, true
	}
	c.mu.Lock()
	c.misses++
	c.mu.Unlock()
	return Node{}, false
}

// insertPaged adds a node loaded from the second tier to the LRU without
// writing it back through.
func (c *Cache) insertPaged(nk nodeKey, n Node) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.pageIns++
	c.storeLocked(nk, n)
}

// Publish stores (or overwrites) the node for the prefix, then evicts
// least-recently-used nodes until the cache fits its byte bound again.
// With a second tier attached the node is written through, so it survives
// LRU eviction and process restarts. The caller must not retain or mutate
// n.Pivots after publishing.
func (c *Cache) Publish(k Key, prefix []byte, rngPos uint64, n Node) {
	nk := nodeKey{tree: k, prefix: string(prefix), rngPos: rngPos}
	c.mu.Lock()
	c.publishes++
	c.storeLocked(nk, n)
	c.mu.Unlock()
	if c.tier2 != nil {
		c.tier2.Save(k, prefix, rngPos, n)
	}
}

// storeLocked inserts or overwrites a node and enforces the byte bound;
// callers hold c.mu.
func (c *Cache) storeLocked(nk nodeKey, n Node) {
	if el, ok := c.nodes[nk]; ok {
		e := el.Value.(*entry)
		c.bytes -= e.size
		e.node = n
		e.computeSize()
		c.bytes += e.size
		c.lru.MoveToFront(el)
	} else {
		e := &entry{key: nk, node: n}
		e.computeSize()
		c.nodes[nk] = c.lru.PushFront(e)
		c.bytes += e.size
	}
	if c.maxBytes > 0 {
		for c.bytes > c.maxBytes && c.lru.Len() > 0 {
			back := c.lru.Back()
			e := back.Value.(*entry)
			c.lru.Remove(back)
			delete(c.nodes, e.key)
			c.bytes -= e.size
			c.evictions++
		}
	}
}

// Stats returns a snapshot of the counters.
func (c *Cache) Stats() Stats {
	c.mu.Lock()
	defer c.mu.Unlock()
	return Stats{
		Hits:        c.hits,
		Misses:      c.misses,
		Publishes:   c.publishes,
		Evictions:   c.evictions,
		Tier2Hits:   c.tier2Hits,
		PageIns:     c.pageIns,
		Invalidated: c.invalidated,
		Nodes:       c.lru.Len(),
		Bytes:       c.bytes,
		MaxBytes:    c.maxBytes,
	}
}

// DropVersion drops every resident node of every tree of the instance at
// the given version, in one pass under the lock, and returns how many
// distinct trees and nodes it dropped. An ingest calls it for the version
// it leaves behind: trees are keyed by version, so no later lookup could
// reach those nodes. Tier-2 copies are left in place; they are unreachable
// for the same reason, and losing a cache tier entry costs recomputation,
// never correctness.
func (c *Cache) DropVersion(instance string, version int64) (trees, nodes int) {
	c.mu.Lock()
	defer c.mu.Unlock()
	seen := make(map[Key]bool)
	for nk, el := range c.nodes {
		if nk.tree.Instance != instance || nk.tree.Version != version {
			continue
		}
		e := el.Value.(*entry)
		c.lru.Remove(el)
		delete(c.nodes, nk)
		c.bytes -= e.size
		seen[nk.tree] = true
		nodes++
	}
	c.invalidated += uint64(nodes)
	return len(seen), nodes
}
