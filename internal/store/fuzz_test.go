package store

import (
	"bytes"
	"errors"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/policy"
	"repro/internal/relation"
)

// FuzzDecodePolicyNode: arbitrary bytes must decode to a node or fail with
// ErrCorrupt — never panic, never misparse silently (a successful decode
// must survive a re-encode/re-decode round trip).
func FuzzDecodePolicyNode(f *testing.F) {
	f.Add(EncodePolicyNode(nil, policy.Node{}))
	f.Add(EncodePolicyNode(nil, policy.Node{Chosen: -1, Complete: true}))
	f.Add(EncodePolicyNode(nil, policy.Node{Chosen: 7, Pivots: []int{1, 2, 3}, RNGAfter: 99}))
	f.Add([]byte{policyNodeVersion, 0x00})
	f.Add([]byte{0xFF, 0xFF, 0xFF})
	f.Fuzz(func(t *testing.T, data []byte) {
		n, err := DecodePolicyNode(data)
		if err != nil {
			if !errors.Is(err, ErrCorrupt) {
				t.Fatalf("decode error does not wrap ErrCorrupt: %v", err)
			}
			return
		}
		again, err := DecodePolicyNode(EncodePolicyNode(nil, n))
		if err != nil {
			t.Fatalf("re-decode of a decoded node failed: %v", err)
		}
		if again.Chosen != n.Chosen || again.Complete != n.Complete || again.RNGAfter != n.RNGAfter || len(again.Pivots) != len(n.Pivots) {
			t.Fatalf("round trip diverged: %+v vs %+v", again, n)
		}
	})
}

// FuzzDecodeDelta: arbitrary bytes must decode to a delta or fail with
// ErrCorrupt — never panic, never misparse silently (a successful decode
// must survive a re-encode/re-decode round trip).
func FuzzDecodeDelta(f *testing.F) {
	f.Add(EncodeDelta(nil, relationDelta()))
	f.Add([]byte{deltaRecordVersion})
	f.Add([]byte{deltaRecordVersion, 0, 0, 0, 0})
	f.Add([]byte{0xFF, 0x01, 0x02})
	f.Fuzz(func(t *testing.T, data []byte) {
		d, err := DecodeDelta(data)
		if err != nil {
			if !errors.Is(err, ErrCorrupt) {
				t.Fatalf("decode error does not wrap ErrCorrupt: %v", err)
			}
			return
		}
		enc := EncodeDelta(nil, d)
		again, err := DecodeDelta(enc)
		if err != nil {
			t.Fatalf("re-decode of a decoded delta failed: %v", err)
		}
		if !bytes.Equal(enc, EncodeDelta(nil, again)) {
			t.Fatalf("round trip diverged: %+v vs %+v", d, again)
		}
	})
}

func relationDelta() relation.Delta {
	return relation.Delta{
		InsertR: []relation.Tuple{{"a", "b"}},
		InsertP: []relation.Tuple{{"c"}},
		DeleteR: []int{1, 2},
		DeleteP: []int{0},
	}
}

// FuzzKeyEscape: the string escape round-trips arbitrary bytes, and
// encoding preserves order.
func FuzzKeyEscape(f *testing.F) {
	f.Add("", "a")
	f.Add("a\x00b", "a\x00c")
	f.Add("same", "same")
	f.Fuzz(func(t *testing.T, a, b string) {
		ea := appendEscaped(nil, a)
		eb := appendEscaped(nil, b)
		got, rest, err := readEscaped(ea)
		if err != nil || got != a || len(rest) != 0 {
			t.Fatalf("round trip of %q: %q, %v, %v", a, got, rest, err)
		}
		if want := bytes.Compare([]byte(a), []byte(b)); want != bytes.Compare(ea, eb) {
			t.Fatalf("order not preserved for %q vs %q", a, b)
		}
	})
}

// FuzzLogReplay: a log file containing arbitrary bytes must open without a
// panic (garbage is a torn tail and is truncated), and the reopened log must
// accept and persist new writes. Replay builds the key index, so after each
// open a full Scan must visit exactly the live keys, in ascending order.
func FuzzLogReplay(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte("not a log at all"))
	f.Add(appendFrame(nil, opPut, []byte("k"), []byte("v")))
	f.Add(appendFrame(appendFrame(nil, opPut, []byte("k"), []byte("v"))[:10], opDelete, []byte("k"), nil))
	var log []byte
	for _, k := range []string{"m", "b", "z", "probe", "a", "b"} {
		log = appendFrame(log, opPut, []byte(k), []byte("v-"+k))
	}
	log = appendFrame(log, opDelete, []byte("z"), nil)
	f.Add(appendFrame(log, opPut, []byte("\x00"), nil))
	f.Fuzz(func(t *testing.T, data []byte) {
		dir := t.TempDir()
		if err := os.WriteFile(filepath.Join(dir, logFileName), data, 0o644); err != nil {
			t.Fatal(err)
		}
		s, err := OpenLog(dir, LogOptions{})
		if err != nil {
			t.Fatalf("OpenLog on fuzzed file: %v", err)
		}
		checkScanIsDirectory(t, s)
		if err := s.Put([]byte("probe"), []byte("alive")); err != nil {
			t.Fatal(err)
		}
		s.Close()
		re, err := OpenLog(dir, LogOptions{})
		if err != nil {
			t.Fatalf("second open: %v", err)
		}
		defer re.Close()
		if v, ok, _ := re.Get([]byte("probe")); !ok || !bytes.Equal(v, []byte("alive")) {
			t.Fatal("write after fuzzed replay did not survive reopen")
		}
		checkScanIsDirectory(t, re)
	})
}

// checkScanIsDirectory checks that a full Scan of a freshly opened log
// visits exactly the keys of its key directory, in strictly ascending
// order, each with the value Get returns.
func checkScanIsDirectory(t *testing.T, s *Log) {
	t.Helper()
	var prev []byte
	n := 0
	err := s.Scan(nil, func(k, v []byte) bool {
		if n > 0 && bytes.Compare(prev, k) >= 0 {
			t.Fatalf("scan visited %q after %q", k, prev)
		}
		if _, ok := s.dir[string(k)]; !ok {
			t.Fatalf("scan visited %q, which is not live", k)
		}
		if got, ok, err := s.Get(k); err != nil || !ok || !bytes.Equal(got, v) {
			t.Fatalf("scan value of %q differs from Get: %v, %v", k, ok, err)
		}
		prev = append(prev[:0], k...)
		n++
		return true
	})
	if err != nil {
		t.Fatal(err)
	}
	if n != len(s.dir) {
		t.Fatalf("scan visited %d keys, the log holds %d", n, len(s.dir))
	}
}
