package store

import (
	"bytes"
	"fmt"
	"math/rand"
	"slices"
	"sort"
	"strings"
	"testing"
)

// indexOf returns a backend's key index (the tests run single-goroutine, so
// no lock is needed).
func indexOf(kv KV) *keyIndex {
	switch s := kv.(type) {
	case *Mem:
		return &s.keys
	case *Log:
		return &s.keys
	}
	panic(fmt.Sprintf("no key index in %T", kv))
}

// checkIndex verifies the index's layout invariants: every chunk is
// non-empty and holds at most indexChunk keys, and the keys ascend strictly
// across the whole index. It returns the key count.
func checkIndex(t *testing.T, x *keyIndex) int {
	t.Helper()
	n := 0
	prev := ""
	for i, c := range x.chunks {
		if len(c) == 0 || len(c) > indexChunk {
			t.Fatalf("chunk %d of %d holds %d keys", i, len(x.chunks), len(c))
		}
		for _, k := range c {
			if n > 0 && k <= prev {
				t.Fatalf("index out of order at key %d: %q after %q", n, k, prev)
			}
			prev = k
			n++
		}
	}
	return n
}

// TestKVDifferentialAgainstModel drives each backend through random puts,
// deletes, batches (including a put-then-delete and a delete-then-put of
// one key in the same batch) and prefix deletes, and after every operation
// checks a scan at a random prefix against a Go map sorted with
// sort.Strings. The key space is large enough to split index chunks, and
// one large batch of deletes merges and empties them; the log backend is also compacted now and then and reopened
// midway.
func TestKVDifferentialAgainstModel(t *testing.T) {
	for _, backend := range []string{"mem", "log"} {
		t.Run(backend, func(t *testing.T) {
			dir := t.TempDir()
			var kv KV
			open := func() {
				if backend == "mem" {
					kv = NewMem()
					return
				}
				s, err := OpenLog(dir, LogOptions{CompactMinGarbage: 64 << 10, CompactGarbageRatio: 0.4})
				if err != nil {
					t.Fatal(err)
				}
				kv = s
			}
			open()
			defer func() { kv.Close() }()

			rng := rand.New(rand.NewSource(20))
			const keySpace, steps = 8000, 4000
			key := func() string { return fmt.Sprintf("k%04d", rng.Intn(keySpace)) }
			val := func() []byte {
				v := make([]byte, 1+rng.Intn(24))
				rng.Read(v)
				return v
			}
			// prefix truncates a random key: mostly to two or more bytes, so
			// a scan visits up to a thousand keys, sometimes to none or one,
			// so it visits all of them.
			prefix := func(minLen int) string {
				n := minLen + rng.Intn(6-minLen)
				if minLen < 2 && rng.Intn(10) != 0 {
					n = 2 + rng.Intn(4)
				}
				return key()[:n]
			}
			model := map[string][]byte{}
			modelScan := func(p string) []string {
				var keys []string
				for k := range model {
					if strings.HasPrefix(k, p) {
						keys = append(keys, k)
					}
				}
				sort.Strings(keys)
				return keys
			}
			check := func(step int, p string) {
				t.Helper()
				want := modelScan(p)
				var got []string
				err := kv.Scan([]byte(p), func(k, v []byte) bool {
					if !bytes.Equal(v, model[string(k)]) {
						t.Fatalf("step %d: scan %q: value of %q diverged", step, p, k)
					}
					got = append(got, string(k))
					return true
				})
				if err != nil {
					t.Fatal(err)
				}
				if !slices.Equal(got, want) {
					t.Fatalf("step %d: scan %q visited %d keys, model has %d", step, p, len(got), len(want))
				}
				if n := checkIndex(t, indexOf(kv)); n != len(model) {
					t.Fatalf("step %d: index holds %d keys, model %d", step, n, len(model))
				}
			}

			maxChunks, compactions := 0, 0
			for step := 0; step < steps; step++ {
				var ops []Op
				switch r := rng.Intn(40); {
				case step == 3*steps/4:
					// Three quarters in, one batch deletes the lower half of
					// the key space in random order: chunks shrink, merge and
					// empty.
					for _, p := range []string{"k0", "k1", "k2", "k3"} {
						for _, k := range modelScan(p) {
							ops = append(ops, Op{Key: []byte(k), Delete: true})
						}
					}
					rng.Shuffle(len(ops), func(i, j int) { ops[i], ops[j] = ops[j], ops[i] })
				case r < 18:
					k, v := key(), val()
					if err := kv.Put([]byte(k), v); err != nil {
						t.Fatal(err)
					}
					model[k] = v
				case r < 26:
					k := key()
					if err := kv.Delete([]byte(k)); err != nil {
						t.Fatal(err)
					}
					delete(model, k)
				case r < 37:
					for n := rng.Intn(16); n >= 0; n-- {
						if rng.Intn(3) == 0 {
							ops = append(ops, Op{Key: []byte(key()), Delete: true})
						} else {
							ops = append(ops, Op{Key: []byte(key()), Value: val()})
						}
					}
					k := []byte(key())
					switch rng.Intn(3) {
					case 0:
						ops = append(ops, Op{Key: k, Value: val()}, Op{Key: k, Delete: true})
					case 1:
						ops = append(ops, Op{Key: k, Delete: true}, Op{Key: k, Value: val()})
					}
				case r < 39:
					for _, k := range modelScan(prefix(3)) {
						ops = append(ops, Op{Key: []byte(k), Delete: true})
					}
				default:
					if s, ok := kv.(*Log); ok {
						if err := s.Compact(); err != nil {
							t.Fatal(err)
						}
					}
				}
				if ops != nil {
					if err := kv.Batch(ops); err != nil {
						t.Fatal(err)
					}
					for _, op := range ops {
						if op.Delete {
							delete(model, string(op.Key))
						} else {
							model[string(op.Key)] = op.Value
						}
					}
				}
				if step == steps/2 && backend == "log" {
					if err := kv.Close(); err != nil {
						t.Fatal(err)
					}
					open()
					check(step, "")
				}
				check(step, prefix(0))
				maxChunks = max(maxChunks, len(indexOf(kv).chunks))
				if s, ok := kv.(*Log); ok {
					compactions = int(s.Stats().Compactions)
				}
			}
			check(steps, "")
			if maxChunks < 3 {
				t.Errorf("the index never held more than %d chunks; the run does not exercise splits", maxChunks)
			}
			if backend == "log" && compactions == 0 {
				t.Error("no compaction since the reopen")
			}
		})
	}
}

// TestKeyIndexSplitsAndMerges loads enough keys to split many chunks, then
// deletes most of them so chunks merge, checking the layout and the scan
// results against a sorted copy throughout.
func TestKeyIndexSplitsAndMerges(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	const n = 20 * indexChunk
	keys := make([]string, n)
	for i, p := range rng.Perm(n) {
		keys[i] = fmt.Sprintf("%06d", p)
	}
	var x keyIndex
	for _, k := range keys {
		x.insert(k)
	}
	x.insert(keys[0]) // present: no-op
	if got := checkIndex(t, &x); got != n {
		t.Fatalf("index holds %d keys after %d inserts", got, n)
	}
	if len(x.chunks) < n/indexChunk {
		t.Fatalf("%d keys in only %d chunks", n, len(x.chunks))
	}
	sorted := slices.Sorted(slices.Values(keys))
	if got := x.withPrefix("01234"); !slices.Equal(got, sorted[12340:12350]) {
		t.Fatalf("withPrefix(01234) = %v", got)
	}
	if got := slices.Collect(x.all()); !slices.Equal(got, sorted) {
		t.Fatal("all() is not the sorted key set")
	}

	// Delete all but two keys in a hundred, in random order.
	loaded := len(x.chunks)
	keep := func(k string) bool { return strings.HasSuffix(k, "00") || strings.HasSuffix(k, "20") }
	for _, k := range keys {
		if !keep(k) {
			x.delete(k)
		}
	}
	x.delete("absent") // no-op
	var want []string
	for _, k := range sorted {
		if keep(k) {
			want = append(want, k)
		}
	}
	if got := checkIndex(t, &x); got != len(want) {
		t.Fatalf("index holds %d keys, want %d", got, len(want))
	}
	if len(x.chunks) > loaded/2 {
		t.Fatalf("%d keys left in %d of the %d chunks the load made; small chunks did not merge", len(want), len(x.chunks), loaded)
	}
	if got := x.withPrefix(""); !slices.Equal(got, want) {
		t.Fatal("withPrefix(\"\") after deletes is not the sorted key set")
	}
	for _, k := range want {
		x.delete(k)
	}
	if len(x.chunks) != 0 || x.withPrefix("") != nil {
		t.Fatalf("emptied index keeps %d chunks", len(x.chunks))
	}

	// A bulk build matches incremental inserts.
	y := newKeyIndex(slices.Clone(keys))
	if checkIndex(t, &y) != n || !slices.Equal(slices.Collect(y.all()), sorted) {
		t.Fatal("newKeyIndex is not the sorted key set")
	}
}

// TestKVScanReentrant pins the Scan contract on both backends: the callback
// may read and write the store, a key deleted before the scan reaches it is
// skipped unless it was put back, a key added after the scan started is not
// visited, and each value is read when its key is reached.
func TestKVScanReentrant(t *testing.T) {
	logKV, _ := openTestLog(t, LogOptions{})
	for _, b := range []struct {
		name string
		kv   KV
	}{{"mem", NewMem()}, {"log", logKV}} {
		t.Run(b.name, func(t *testing.T) {
			kv := b.kv
			for _, k := range []string{"a0", "a1", "a2", "a3", "a4", "a5", "a6", "a7", "b0", "b1"} {
				if err := kv.Put([]byte(k), []byte("old")); err != nil {
					t.Fatal(err)
				}
			}
			var got []string
			err := kv.Scan([]byte("a"), func(k, v []byte) bool {
				got = append(got, string(k)+"="+string(v))
				if string(k) != "a1" {
					return true
				}
				must := func(err error) {
					if err != nil {
						t.Fatalf("call back into the store: %v", err)
					}
				}
				if v, ok, err := kv.Get([]byte("a0")); err != nil || !ok || string(v) != "old" {
					t.Fatalf("Get inside Scan: %q, %v, %v", v, ok, err)
				}
				// Inside the prefix: a2 is deleted before the scan reaches it,
				// a3 is deleted and put back, a5 is overwritten, a11 and a8
				// are added, a0 (already visited) is deleted, and a6 goes in
				// a batch. Outside it: b0 is deleted, b2 and c0 are added.
				must(kv.Delete([]byte("a2")))
				must(kv.Delete([]byte("a3")))
				must(kv.Put([]byte("a3"), []byte("back")))
				must(kv.Put([]byte("a5"), []byte("new")))
				must(kv.Put([]byte("a11"), []byte("added")))
				must(kv.Put([]byte("a8"), []byte("added")))
				must(kv.Delete([]byte("a0")))
				must(kv.Delete([]byte("b0")))
				must(kv.Put([]byte("b2"), []byte("added")))
				must(kv.Batch([]Op{{Key: []byte("a6"), Delete: true}, {Key: []byte("c0"), Value: []byte("x")}}))
				if s, ok := kv.(*Log); ok {
					must(s.Compact()) // moves every record under the scan
				}
				return true
			})
			if err != nil {
				t.Fatal(err)
			}
			want := []string{"a0=old", "a1=old", "a3=back", "a4=old", "a5=new", "a7=old"}
			if !slices.Equal(got, want) {
				t.Fatalf("scan visited %v, want %v", got, want)
			}
			keys, _ := scanAll(t, kv, nil)
			var all []string
			for _, k := range keys {
				all = append(all, string(k))
			}
			if want := []string{"a1", "a11", "a3", "a4", "a5", "a7", "a8", "b1", "b2", "c0"}; !slices.Equal(all, want) {
				t.Fatalf("after the scan the store holds %v, want %v", all, want)
			}
		})
	}
}
