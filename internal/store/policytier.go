package store

import (
	"encoding/binary"
	"math"
	"sync/atomic"

	"repro/internal/policy"
	"repro/internal/resilience"
	"repro/internal/wire"
)

// PolicyTier adapts a KV into the policy cache's second tier: published
// decision nodes are written through as compact binary records under
// sortable (instance, version, strategy, seed, answer-prefix) keys, and an LRU miss
// pages the subtree rooted at the missed prefix back in with one prefix
// scan. The byte-bounded LRU then holds only the working set; the full
// tree — thousands of instances' worth — lives in the store.
type PolicyTier struct {
	kv KV
	// readahead bounds how many nodes one PageIn streams into the LRU.
	readahead int
	// br, when set, circuit-breaks the tier: with the breaker open every
	// Load/PageIn is a miss and every Save is skipped, so a dying store
	// costs one Allow() check instead of an IO stall per node. The walk
	// recomputes live — slower, never wrong.
	br *resilience.Breaker
	// saveErrs counts Save failures (absorbed per the Tier2 contract).
	saveErrs atomic.Int64
	// skipped counts operations short-circuited by an open breaker.
	skipped atomic.Int64
}

// DefaultPolicyReadahead is the subtree page-in bound: enough to cover the
// next several levels of a walk without flooding the LRU on every miss.
const DefaultPolicyReadahead = 512

// NewPolicyTier builds a policy tier over the KV; readahead ≤ 0 selects
// DefaultPolicyReadahead.
func NewPolicyTier(kv KV, readahead int) *PolicyTier {
	if readahead <= 0 {
		readahead = DefaultPolicyReadahead
	}
	return &PolicyTier{kv: kv, readahead: readahead}
}

// SaveErrors reports how many Save calls failed (and were absorbed).
func (t *PolicyTier) SaveErrors() int64 { return t.saveErrs.Load() }

// SetBreaker attaches a circuit breaker (typically shared with the session
// persist path, so one store-health verdict governs both). Call before the
// tier starts serving.
func (t *PolicyTier) SetBreaker(br *resilience.Breaker) { t.br = br }

// BreakerSkips reports how many tier operations an open breaker
// short-circuited.
func (t *PolicyTier) BreakerSkips() int64 { return t.skipped.Load() }

// Load implements policy.Tier2.
func (t *PolicyTier) Load(k policy.Key, prefix []byte, rngPos uint64) (policy.Node, bool) {
	if !t.br.Allow() {
		t.skipped.Add(1)
		return policy.Node{}, false
	}
	v, ok, err := t.kv.Get(PolicyNodeKey(k.Instance, k.Version, k.Strategy, k.Seed, prefix, rngPos))
	if err != nil {
		t.br.Failure(err)
		return policy.Node{}, false
	}
	t.br.Success()
	if !ok {
		return policy.Node{}, false
	}
	n, err := DecodePolicyNode(v)
	if err != nil {
		return policy.Node{}, false // corrupt record: treat as a miss
	}
	return n, true
}

// PageIn implements policy.Tier2: one prefix scan streams the stored
// subtree under the answer prefix into the LRU, in key order (the node at
// the prefix itself first for deterministic trees, then descendants).
func (t *PolicyTier) PageIn(k policy.Key, prefix []byte, insert func(prefix []byte, rngPos uint64, n policy.Node) bool) {
	if !t.br.Allow() {
		t.skipped.Add(1)
		return
	}
	treePrefix := PolicyTreePrefix(k.Instance, k.Version, k.Strategy, k.Seed)
	scanPrefix := append(append([]byte(nil), treePrefix...), prefix...)
	left := t.readahead
	err := t.kv.Scan(scanPrefix, func(key, value []byte) bool {
		answerPrefix, rngPos, err := SplitPolicyNodeKey(treePrefix, key)
		if err != nil {
			return true // not a well-formed node key; skip
		}
		n, err := DecodePolicyNode(value)
		if err != nil {
			return true // corrupt record: skip, the walk recomputes it
		}
		if !insert(answerPrefix, rngPos, n) {
			return false
		}
		left--
		return left > 0
	})
	if err != nil {
		t.br.Failure(err)
	} else {
		t.br.Success()
	}
}

// Save implements policy.Tier2: write-through of one published node.
func (t *PolicyTier) Save(k policy.Key, prefix []byte, rngPos uint64, n policy.Node) {
	if !t.br.Allow() {
		t.skipped.Add(1)
		return
	}
	key := PolicyNodeKey(k.Instance, k.Version, k.Strategy, k.Seed, prefix, rngPos)
	if err := t.kv.Put(key, EncodePolicyNode(nil, n)); err != nil {
		t.saveErrs.Add(1)
		t.br.Failure(err)
	} else {
		t.br.Success()
	}
}

// Policy node value format (version-tagged, varint-packed):
//
//	[1B version=1][varint chosen][1B complete][uvarint rngAfter]
//	[uvarint len(pivots)][varint pivot]...
//
// chosen is a class index or -1, a pivot a class index. A node the decoder
// rejects is a cache miss, and the walk recomputes it.
const policyNodeVersion = 1

// maxPolicyPivots bounds the decoded pivot count: a batch never picks more
// pivots than there are T-classes, and no real instance has a million —
// anything above is corruption, not data.
const maxPolicyPivots = 1 << 20

// EncodePolicyNode appends the node's binary form to buf.
func EncodePolicyNode(buf []byte, n policy.Node) []byte {
	buf = append(buf, policyNodeVersion)
	buf = binary.AppendVarint(buf, int64(n.Chosen))
	buf = wire.AppendFlag(buf, n.Complete)
	buf = binary.AppendUvarint(buf, n.RNGAfter)
	buf = binary.AppendUvarint(buf, uint64(len(n.Pivots)))
	for _, p := range n.Pivots {
		buf = binary.AppendVarint(buf, int64(p))
	}
	return buf
}

// DecodePolicyNode parses a node value. Corrupt, truncated, or
// version-skewed input returns ErrCorrupt — never a panic, and never a
// silently misparsed node.
func DecodePolicyNode(data []byte) (policy.Node, error) {
	d := wire.NewDec(data, ErrCorrupt)
	if v := d.Byte(); v != policyNodeVersion {
		d.Failf("policy node version %d", v)
	}
	n := policy.Node{
		Chosen:   int(d.Varint(-1, math.MaxInt32)),
		Complete: d.Flag(),
		RNGAfter: d.Uvarint(math.MaxUint64),
	}
	// A pivot takes at least one byte.
	if count := d.Uvarint(uint64(min(maxPolicyPivots, d.Len()))); count > 0 {
		n.Pivots = make([]int, count)
		for i := range n.Pivots {
			n.Pivots[i] = int(d.Varint(0, math.MaxInt32))
		}
	}
	if err := d.Finish(); err != nil {
		return policy.Node{}, err
	}
	return n, nil
}
