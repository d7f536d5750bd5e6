package store

import (
	"fmt"
	"math/rand"
	"testing"
)

// openBenchKV opens a fresh backend of the named kind for a benchmark.
func openBenchKV(b *testing.B, backend string) KV {
	b.Helper()
	if backend == "mem" {
		return NewMem()
	}
	s, err := OpenLog(b.TempDir(), LogOptions{})
	if err != nil {
		b.Fatal(err)
	}
	return s
}

// benchKeys returns the keys p0000000 … p(n-1) in random order, so each
// 7-byte prefix p%06d matches ten of them.
func benchKeys(n int) [][]byte {
	keys := make([][]byte, n)
	for i, p := range rand.New(rand.NewSource(1)).Perm(n) {
		keys[i] = []byte(fmt.Sprintf("p%07d", p))
	}
	return keys
}

// countScan scans prefix and fails the benchmark on an error.
func countScan(b *testing.B, kv KV, prefix []byte) int {
	n := 0
	if err := kv.Scan(prefix, func(_, _ []byte) bool { n++; return true }); err != nil {
		b.Fatal(err)
	}
	return n
}

// BenchmarkKVPageIn is a policy page-in after a session write: one new key,
// then one prefix scan of ten keys, on a store that holds 1k, 10k and 100k
// keys. Its cost should grow with the log of the store's size, not with the
// size.
func BenchmarkKVPageIn(b *testing.B) {
	val := make([]byte, 32)
	for _, backend := range []string{"mem", "log"} {
		for _, n := range []int{1000, 10000, 100000} {
			b.Run(fmt.Sprintf("%s/keys=%d", backend, n), func(b *testing.B) {
				kv := openBenchKV(b, backend)
				defer kv.Close()
				keys := benchKeys(n)
				for len(keys) > 0 {
					ops := make([]Op, min(len(keys), 1000))
					for i := range ops {
						ops[i] = Op{Key: keys[i], Value: val}
					}
					if err := kv.Batch(ops); err != nil {
						b.Fatal(err)
					}
					keys = keys[len(ops):]
				}
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					if err := kv.Put([]byte(fmt.Sprintf("s%08d", i)), val); err != nil {
						b.Fatal(err)
					}
					if got := countScan(b, kv, []byte(fmt.Sprintf("p%06d", i%(n/10)))); got != 10 {
						b.Fatalf("page-in scan visited %d keys, want 10", got)
					}
				}
			})
		}
	}
}

// BenchmarkKVPutNewKeys is a bulk load: 100k new keys put one at a time in
// random order into an empty store, then one prefix scan. Keeping the key
// order on every insert must not make the load quadratic.
func BenchmarkKVPutNewKeys(b *testing.B) {
	const n = 100000
	val := make([]byte, 32)
	keys := benchKeys(n)
	for _, backend := range []string{"mem", "log"} {
		b.Run(backend, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				b.StopTimer()
				kv := openBenchKV(b, backend)
				b.StartTimer()
				for _, k := range keys {
					if err := kv.Put(k, val); err != nil {
						b.Fatal(err)
					}
				}
				if got := countScan(b, kv, []byte("p000123")); got != 10 {
					b.Fatalf("scan visited %d keys, want 10", got)
				}
				b.StopTimer()
				kv.Close()
				b.StartTimer()
			}
		})
	}
}
