package service

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"errors"
	"testing"

	joininference "repro"
)

// wireSession is a fixed soft join snapshot wrapped in a service record.
func wireSession() *SessionSnapshot {
	return &SessionSnapshot{
		ID:       "0123456789abcdef",
		Instance: "flights",
		Snapshot: &joininference.Snapshot{
			Version:     joininference.SnapshotVersion,
			Kind:        joininference.SnapshotKindJoin,
			Strategy:    joininference.StrategyL1S,
			Seed:        -7,
			Budget:      12,
			Parallelism: 2,
			Asked:       2,
			Transcript:  []joininference.TranscriptEntry{{RIndex: 1, PIndex: 2, Positive: true}, {RIndex: 3, PIndex: 0}},
			Soft: &joininference.SoftSnapshot{
				Threshold:   2,
				ErrorBudget: 1,
				Votes:       3,
				Beliefs: []joininference.BeliefEntry{{
					RIndex: 1, PIndex: 2, Pos: 2,
					Votes: []joininference.WorkerVote{{Worker: "ann", Weight: 1, Positive: true}, {Worker: "bob", Weight: 1, Positive: true}},
				}},
			},
		},
	}
}

// TestManagerStoreWireBytes pins the exact bytes of a service store record
// as a SHA-256 digest, and checks that the record decodes back to them.
func TestManagerStoreWireBytes(t *testing.T) {
	const want = "3c869db98f12d56752ea508fad0de2c254a355b2fc24b270ea545791a3a289ec"
	rec := encodeServiceSnapshot(wireSession())
	if got := digest(rec); got != want {
		t.Errorf("service record digest %s, want %s", got, want)
	}
	back, err := decodeServiceSnapshot(rec)
	if err != nil {
		t.Fatal(err)
	}
	if got := digest(encodeServiceSnapshot(back)); got != want {
		t.Errorf("decoded service record re-encodes to digest %s, want %s", got, want)
	}
}

func digest(b []byte) string {
	sum := sha256.Sum256(b)
	return hex.EncodeToString(sum[:])
}

// FuzzDecodeServiceSnapshot: arbitrary bytes must either fail with
// ErrBadSnapshot or decode to a record whose re-encoding decodes again to
// the same bytes. Never a panic.
func FuzzDecodeServiceSnapshot(f *testing.F) {
	soft := wireSession()
	hard := &SessionSnapshot{ID: "fedcba9876543210", Instance: "ex21", Snapshot: &joininference.Snapshot{
		Version: 1, Kind: joininference.SnapshotKindSemijoin, Asked: 1,
		Transcript: []joininference.TranscriptEntry{{RIndex: 2, PIndex: -1}},
	}}
	for _, rec := range [][]byte{encodeServiceSnapshot(soft), encodeServiceSnapshot(hard)} {
		for _, cut := range []int{len(rec), len(rec) - 1, len(rec) / 2, 5} {
			f.Add(rec[:cut])
		}
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		snap, err := decodeServiceSnapshot(data)
		if err != nil {
			if !errors.Is(err, joininference.ErrBadSnapshot) {
				t.Fatalf("decode error does not wrap ErrBadSnapshot: %v", err)
			}
			return
		}
		enc := encodeServiceSnapshot(snap)
		again, err := decodeServiceSnapshot(enc)
		if err != nil {
			t.Fatalf("re-encode of a decoded record failed: %v", err)
		}
		if !bytes.Equal(enc, encodeServiceSnapshot(again)) {
			t.Fatal("round trip diverged")
		}
	})
}
