package store

import (
	"bytes"
	"errors"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/policy"
)

// openTestLog opens a log backend in a fresh temp dir and closes it with
// the test.
func openTestLog(t *testing.T, opts LogOptions) (*Log, string) {
	t.Helper()
	dir := t.TempDir()
	s, err := OpenLog(dir, opts)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { s.Close() })
	return s, dir
}

// scanAll collects every record under prefix in visit order.
func scanAll(t *testing.T, kv KV, prefix []byte) (keys, vals [][]byte) {
	t.Helper()
	err := kv.Scan(prefix, func(k, v []byte) bool {
		keys = append(keys, append([]byte(nil), k...))
		vals = append(vals, append([]byte(nil), v...))
		return true
	})
	if err != nil {
		t.Fatal(err)
	}
	return keys, vals
}

// TestKVDifferential drives the memory and log backends through one
// deterministic pseudo-random op sequence and checks they agree on every
// read, every scan, and the final state, fills both with a 10000-key bulk
// load — then reopens the log and checks the state survived.
func TestKVDifferential(t *testing.T) {
	mem := NewMem()
	logKV, dir := openTestLog(t, LogOptions{CompactMinGarbage: 256, CompactGarbageRatio: 0.3})
	rng := rand.New(rand.NewSource(42))
	key := func(i int) []byte { return []byte(fmt.Sprintf("k%03d", i)) }
	const keySpace = 60

	checkGet := func(i int) {
		t.Helper()
		mv, mok, merr := mem.Get(key(i))
		lv, lok, lerr := logKV.Get(key(i))
		if merr != nil || lerr != nil {
			t.Fatalf("get errors: mem=%v log=%v", merr, lerr)
		}
		if mok != lok || !bytes.Equal(mv, lv) {
			t.Fatalf("get %s diverged: mem=(%q,%v) log=(%q,%v)", key(i), mv, mok, lv, lok)
		}
	}
	for step := 0; step < 3000; step++ {
		i := rng.Intn(keySpace)
		switch rng.Intn(5) {
		case 0, 1: // put
			v := make([]byte, rng.Intn(200))
			rng.Read(v)
			if err := mem.Put(key(i), v); err != nil {
				t.Fatal(err)
			}
			if err := logKV.Put(key(i), v); err != nil {
				t.Fatal(err)
			}
		case 2: // delete
			if err := mem.Delete(key(i)); err != nil {
				t.Fatal(err)
			}
			if err := logKV.Delete(key(i)); err != nil {
				t.Fatal(err)
			}
		case 3: // batch
			var ops []Op
			for n := rng.Intn(4); n >= 0; n-- {
				j := rng.Intn(keySpace)
				if rng.Intn(3) == 0 {
					ops = append(ops, Op{Key: key(j), Delete: true})
				} else {
					v := make([]byte, rng.Intn(50))
					rng.Read(v)
					ops = append(ops, Op{Key: key(j), Value: v})
				}
			}
			if err := mem.Batch(ops); err != nil {
				t.Fatal(err)
			}
			if err := logKV.Batch(ops); err != nil {
				t.Fatal(err)
			}
		case 4: // get
			checkGet(i)
		}
		if step%250 == 0 {
			mk, mv := scanAll(t, mem, nil)
			lk, lv := scanAll(t, logKV, nil)
			if len(mk) != len(lk) {
				t.Fatalf("step %d: scan sizes diverged: mem=%d log=%d", step, len(mk), len(lk))
			}
			for x := range mk {
				if !bytes.Equal(mk[x], lk[x]) || !bytes.Equal(mv[x], lv[x]) {
					t.Fatalf("step %d: scan entry %d diverged", step, x)
				}
			}
		}
	}
	for i := 0; i < keySpace; i++ {
		checkGet(i)
	}

	// Bulk phase: 10000 fresh 256-byte records. Every one reads back, and a
	// prefix scan over 1000 of them visits exactly those 1000 — on both
	// backends. The reopen below then replays all of them.
	val := make([]byte, 256)
	bulk := func(i int) []byte { return []byte(fmt.Sprintf("key%06d", i)) }
	for i := 0; i < 10000; i++ {
		if err := mem.Put(bulk(i), val); err != nil {
			t.Fatal(err)
		}
		if err := logKV.Put(bulk(i), val); err != nil {
			t.Fatal(err)
		}
	}
	for _, b := range []struct {
		name string
		kv   KV
	}{{"mem", mem}, {"log", logKV}} {
		name, kv := b.name, b.kv
		for i := 0; i < 10000; i++ {
			if _, ok, err := kv.Get(bulk(i)); err != nil || !ok {
				t.Fatalf("%s: get %s = %v, %v", name, bulk(i), ok, err)
			}
		}
		n := 0
		if err := kv.Scan([]byte("key000"), func(_, _ []byte) bool { n++; return true }); err != nil {
			t.Fatal(err)
		}
		if n != 1000 {
			t.Fatalf("%s: prefix scan visited %d keys, want 1000", name, n)
		}
	}

	// Reopen the log: replay must reconstruct the same state.
	if err := logKV.Close(); err != nil {
		t.Fatal(err)
	}
	reopened, err := OpenLog(dir, LogOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer reopened.Close()
	mk, mv := scanAll(t, mem, nil)
	rk, rv := scanAll(t, reopened, nil)
	if len(mk) != len(rk) {
		t.Fatalf("after reopen: %d keys, want %d", len(rk), len(mk))
	}
	for x := range mk {
		if !bytes.Equal(mk[x], rk[x]) || !bytes.Equal(mv[x], rv[x]) {
			t.Fatalf("after reopen: entry %d diverged", x)
		}
	}
}

// TestKeyOrdering checks the key codec's two load-bearing properties:
// bytewise order equals component order, and policy child keys extend their
// parent's bytes.
func TestKeyOrdering(t *testing.T) {
	// Escaped strings: order-preserving, including embedded zero bytes, and
	// a shorter string sorts before its extensions.
	strs := []string{"", "a", "a\x00", "a\x00b", "ab", "b"}
	for i := 0; i < len(strs)-1; i++ {
		a := appendEscaped(nil, strs[i])
		b := appendEscaped(nil, strs[i+1])
		if bytes.Compare(a, b) >= 0 {
			t.Errorf("escaped %q !< %q", strs[i], strs[i+1])
		}
		got, rest, err := readEscaped(a)
		if err != nil || got != strs[i] || len(rest) != 0 {
			t.Errorf("readEscaped(%q) = %q, %v, %v", strs[i], got, rest, err)
		}
	}
	// Int64: bytewise order equals numeric order across the sign.
	ints := []int64{-1 << 62, -1, 0, 1, 1 << 62}
	for i := 0; i < len(ints)-1; i++ {
		a := appendInt64(nil, ints[i])
		b := appendInt64(nil, ints[i+1])
		if bytes.Compare(a, b) >= 0 {
			t.Errorf("int64 %d !< %d", ints[i], ints[i+1])
		}
		got, _, err := readInt64(a)
		if err != nil || got != ints[i] {
			t.Errorf("readInt64(%d) = %d, %v", ints[i], got, err)
		}
	}
	// Session keys round-trip and mis-tagged keys are rejected.
	for _, id := range []string{"deadbeef00112233", "x", "a\x00b"} {
		got, err := SessionID(SessionKey(id))
		if err != nil || got != id {
			t.Errorf("SessionID(SessionKey(%q)) = %q, %v", id, got, err)
		}
	}
	if _, err := SessionID(RegistryKey("x")); err == nil {
		t.Error("SessionID accepted a registry key")
	}

	// Policy keys: a child's key bytes extend its parent's, so the subtree
	// is exactly the bytewise prefix range.
	parent := policy.AppendEdge(nil, 3, true)
	child := policy.AppendEdge(append([]byte(nil), parent...), 7, false)
	pk := PolicySubtreePrefix("inst", 2, "L2S", 0, parent)
	ck := PolicyNodeKey("inst", 2, "L2S", 0, child, 9)
	if !bytes.HasPrefix(ck, pk) {
		t.Error("child policy key does not extend the parent subtree prefix")
	}
	tree := PolicyTreePrefix("inst", 2, "L2S", 0)
	ap, rng, err := SplitPolicyNodeKey(tree, ck)
	if err != nil || !bytes.Equal(ap, child) || rng != 9 {
		t.Errorf("SplitPolicyNodeKey = (%v, %d, %v), want (%v, 9, nil)", ap, rng, err, child)
	}
	inst, ver, strat, seed, rest, err := ParsePolicyTree(ck)
	if err != nil || inst != "inst" || ver != 2 || strat != "L2S" || seed != 0 || !bytes.Equal(rest, ck[len(tree):]) {
		t.Errorf("ParsePolicyTree = (%q, %d, %q, %d, %v, %v)", inst, ver, strat, seed, rest, err)
	}
	// Trees with different (instance, version, strategy, seed) never share
	// a prefix.
	other := PolicyTreePrefix("inst", 2, "L2S", 1)
	if bytes.HasPrefix(other, tree) || bytes.HasPrefix(tree, other) {
		t.Error("distinct trees share a prefix")
	}
}

// TestLogCompaction drives enough garbage through a tightly-bounded log to
// trigger automatic compaction, and checks the surviving state and the
// reclaimed bytes.
func TestLogCompaction(t *testing.T) {
	s, dir := openTestLog(t, LogOptions{CompactMinGarbage: 512, CompactGarbageRatio: 0.4})
	val := bytes.Repeat([]byte("v"), 64)
	for round := 0; round < 50; round++ {
		for i := 0; i < 10; i++ {
			if err := s.Put([]byte(fmt.Sprintf("key%d", i)), val); err != nil {
				t.Fatal(err)
			}
		}
	}
	if err := s.Delete([]byte("key9")); err != nil {
		t.Fatal(err)
	}
	st := s.Stats()
	if st.Compactions == 0 {
		t.Fatalf("no compaction after %d bytes of garbage: %+v", st.DeadBytes, st)
	}
	if st.CompactedBytes == 0 {
		t.Error("compaction reclaimed nothing")
	}
	if st.Keys != 9 {
		t.Errorf("got %d keys, want 9", st.Keys)
	}
	// The state survives both compaction and a reopen of the compacted file.
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	re, err := OpenLog(dir, LogOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer re.Close()
	for i := 0; i < 9; i++ {
		v, ok, err := re.Get([]byte(fmt.Sprintf("key%d", i)))
		if err != nil || !ok || !bytes.Equal(v, val) {
			t.Fatalf("key%d after compaction+reopen: ok=%v err=%v", i, ok, err)
		}
	}
	if _, ok, _ := re.Get([]byte("key9")); ok {
		t.Error("deleted key resurrected by compaction")
	}
}

// TestLogCompactionDisabled: a negative CompactMinGarbage turns automatic
// compaction off; explicit Compact still works.
func TestLogCompactionDisabled(t *testing.T) {
	s, _ := openTestLog(t, LogOptions{CompactMinGarbage: -1})
	val := bytes.Repeat([]byte("v"), 128)
	for i := 0; i < 200; i++ {
		if err := s.Put([]byte("k"), val); err != nil {
			t.Fatal(err)
		}
	}
	if st := s.Stats(); st.Compactions != 0 || st.DeadBytes == 0 {
		t.Fatalf("automatic compaction ran despite being disabled: %+v", st)
	}
	if err := s.Compact(); err != nil {
		t.Fatal(err)
	}
	if st := s.Stats(); st.Compactions != 1 || st.DeadBytes != 0 {
		t.Fatalf("explicit compaction: %+v", st)
	}
}

// TestEnsureFormat stamps an empty store and rejects newer formats.
func TestEnsureFormat(t *testing.T) {
	kv := NewMem()
	if err := EnsureFormat(kv); err != nil {
		t.Fatal(err)
	}
	if err := EnsureFormat(kv); err != nil { // idempotent
		t.Fatal(err)
	}
	if err := kv.Put(MetaKey(), []byte{FormatVersion + 1}); err != nil {
		t.Fatal(err)
	}
	if err := EnsureFormat(kv); !errors.Is(err, ErrCorrupt) {
		t.Errorf("newer format accepted: %v", err)
	}
}

// TestClosed: every operation fails with ErrClosed after Close, on both
// backends.
func TestClosed(t *testing.T) {
	logKV, _ := openTestLog(t, LogOptions{})
	for name, kv := range map[string]KV{"mem": NewMem(), "log": logKV} {
		if err := kv.Put([]byte("k"), []byte("v")); err != nil {
			t.Fatal(err)
		}
		if err := kv.Close(); err != nil {
			t.Fatal(err)
		}
		if _, _, err := kv.Get([]byte("k")); !errors.Is(err, ErrClosed) {
			t.Errorf("%s: Get after close: %v", name, err)
		}
		if err := kv.Put([]byte("k"), nil); !errors.Is(err, ErrClosed) {
			t.Errorf("%s: Put after close: %v", name, err)
		}
		if err := kv.Scan(nil, func(_, _ []byte) bool { return true }); !errors.Is(err, ErrClosed) {
			t.Errorf("%s: Scan after close: %v", name, err)
		}
		if err := kv.Sync(); !errors.Is(err, ErrClosed) {
			t.Errorf("%s: Sync after close: %v", name, err)
		}
	}
}

// TestPolicyNodeRoundTrip: the node codec is exact — what Publish wrote is
// bit-identical to what PageIn returns.
func TestPolicyNodeRoundTrip(t *testing.T) {
	nodes := []policy.Node{
		{},
		{Chosen: -1, Complete: true},
		{Chosen: 42, Pivots: []int{1, 5, 9}, Complete: true, RNGAfter: 77},
		{Chosen: 1 << 30, RNGAfter: 1 << 40},
		{Chosen: 0, Pivots: make([]int, 100)},
	}
	for i, n := range nodes {
		got, err := DecodePolicyNode(EncodePolicyNode(nil, n))
		if err != nil {
			t.Fatalf("node %d: %v", i, err)
		}
		if got.Chosen != n.Chosen || got.Complete != n.Complete || got.RNGAfter != n.RNGAfter || len(got.Pivots) != len(n.Pivots) {
			t.Fatalf("node %d: decoded %+v, want %+v", i, got, n)
		}
		for j := range n.Pivots {
			if got.Pivots[j] != n.Pivots[j] {
				t.Fatalf("node %d pivot %d: %d != %d", i, j, got.Pivots[j], n.Pivots[j])
			}
		}
	}
	for _, bad := range [][]byte{
		nil,
		{},
		{99},                            // unknown version
		{policyNodeVersion},             // truncated after version
		{policyNodeVersion, 0x02, 0x05}, // bad complete flag
		append(EncodePolicyNode(nil, policy.Node{Chosen: 1}), 0), // trailing byte
		EncodePolicyNode(nil, policy.Node{Chosen: 1})[:3],        // truncated
	} {
		if _, err := DecodePolicyNode(bad); !errors.Is(err, ErrCorrupt) {
			t.Errorf("DecodePolicyNode(%v) err = %v, want ErrCorrupt", bad, err)
		}
	}
}

// TestPolicyTier exercises the KV-backed tier directly: save, exact load,
// and subtree page-in order.
func TestPolicyTier(t *testing.T) {
	kv := NewMem()
	tier := NewPolicyTier(kv, 10)
	k := policy.Key{Instance: "i", Strategy: "TD", Seed: 0}
	root := []byte(nil)
	left := policy.AppendEdge(nil, 0, false)
	leftLeft := policy.AppendEdge(append([]byte(nil), left...), 1, true)
	right := policy.AppendEdge(nil, 0, true)
	for i, p := range [][]byte{root, left, leftLeft, right} {
		tier.Save(k, p, 0, policy.Node{Chosen: i})
	}
	if n, ok := tier.Load(k, leftLeft, 0); !ok || n.Chosen != 2 {
		t.Fatalf("Load(leftLeft) = %+v, %v", n, ok)
	}
	if _, ok := tier.Load(k, leftLeft, 5); ok {
		t.Error("Load hit on a wrong RNG position")
	}
	if _, ok := tier.Load(policy.Key{Instance: "other"}, leftLeft, 0); ok {
		t.Error("Load hit on a wrong tree")
	}
	// Page in the subtree under left. The stream must cover left and its
	// descendant; fixed-width RNG-position suffixes mean keys of other nodes
	// may also land in the scan range (rngPos 0 starts with 0x00 bytes, the
	// same bytes a 0-index edge encodes to) — that is documented readahead
	// slop, and every streamed node must still decode under its true prefix.
	byPrefix := map[string]int{
		string(root): 0, string(left): 1, string(leftLeft): 2, string(right): 3,
	}
	streamed := map[string]bool{}
	tier.PageIn(k, left, func(p []byte, rng uint64, n policy.Node) bool {
		want, known := byPrefix[string(p)]
		if !known || n.Chosen != want || rng != 0 {
			t.Errorf("PageIn streamed node %+v at prefix %v rng %d", n, p, rng)
		}
		streamed[string(p)] = true
		return true
	})
	if !streamed[string(left)] || !streamed[string(leftLeft)] {
		t.Errorf("PageIn(left) missed the subtree: %v", streamed)
	}
	if streamed[string(right)] {
		t.Error("PageIn(left) streamed the right sibling")
	}
	// Readahead bound of 1: only the first node streams.
	small := NewPolicyTier(kv, 1)
	var got []int
	small.PageIn(k, nil, func(p []byte, rng uint64, n policy.Node) bool {
		got = append(got, n.Chosen)
		return true
	})
	if len(got) != 1 {
		t.Errorf("readahead=1 streamed %d nodes", len(got))
	}
	// Save failures are absorbed and counted.
	kv.Close()
	tier.Save(k, root, 0, policy.Node{})
	if tier.SaveErrors() == 0 {
		t.Error("Save error not counted")
	}
}

// TestLogLeftoverCompactTemp: a temp file left by a crash mid-compaction is
// discarded on open and the original log stays authoritative.
func TestLogLeftoverCompactTemp(t *testing.T) {
	s, dir := openTestLog(t, LogOptions{})
	if err := s.Put([]byte("k"), []byte("v")); err != nil {
		t.Fatal(err)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	tmp := filepath.Join(dir, logFileName+".compact")
	if err := os.WriteFile(tmp, []byte("half-written garbage"), 0o644); err != nil {
		t.Fatal(err)
	}
	re, err := OpenLog(dir, LogOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer re.Close()
	if v, ok, _ := re.Get([]byte("k")); !ok || !bytes.Equal(v, []byte("v")) {
		t.Errorf("log state lost after leftover temp: %q, %v", v, ok)
	}
}
