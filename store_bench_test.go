package joininference

import (
	"bytes"
	"context"
	"testing"

	"repro/internal/paperdata"
	"repro/internal/store"
)

// benchSnapshot builds a transcript-heavy snapshot for the codec benches.
func benchSnapshot(b *testing.B) *Snapshot {
	b.Helper()
	inst := paperdata.FlightHotel()
	u := NewSession(inst).Universe()
	goal, err := PredFromNames(u, [2]string{"To", "City"}, [2]string{"Airline", "Discount"})
	if err != nil {
		b.Fatal(err)
	}
	s := NewSession(inst, WithStrategy(StrategyBU))
	ctx := context.Background()
	oracle := HonestOracle(goal)
	for {
		qs, err := s.NextQuestions(ctx, 1)
		if err != nil {
			b.Fatal(err)
		}
		if len(qs) == 0 {
			break
		}
		l, _ := oracle.Label(ctx, qs[0])
		if err := s.Answer(qs[0], l); err != nil {
			b.Fatal(err)
		}
	}
	sn, err := s.Snapshot()
	if err != nil {
		b.Fatal(err)
	}
	return sn
}

// BenchmarkSnapshotEncode compares the store's binary snapshot codec with
// the JSON form (the BENCH_store.json numbers).
func BenchmarkSnapshotEncode(b *testing.B) {
	sn := benchSnapshot(b)
	b.Run("json", func(b *testing.B) {
		var buf bytes.Buffer
		for i := 0; i < b.N; i++ {
			buf.Reset()
			if err := sn.Encode(&buf); err != nil {
				b.Fatal(err)
			}
		}
		b.SetBytes(int64(buf.Len()))
	})
	b.Run("binary", func(b *testing.B) {
		var buf []byte
		for i := 0; i < b.N; i++ {
			buf = sn.AppendBinary(buf[:0])
		}
		b.SetBytes(int64(len(buf)))
	})
}

func BenchmarkSnapshotDecode(b *testing.B) {
	sn := benchSnapshot(b)
	var jsonBuf bytes.Buffer
	if err := sn.Encode(&jsonBuf); err != nil {
		b.Fatal(err)
	}
	binBuf := sn.AppendBinary(nil)
	b.Run("json", func(b *testing.B) {
		b.SetBytes(int64(jsonBuf.Len()))
		for i := 0; i < b.N; i++ {
			if _, err := DecodeSnapshotBytes(jsonBuf.Bytes()); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("binary", func(b *testing.B) {
		b.SetBytes(int64(len(binBuf)))
		for i := 0; i < b.N; i++ {
			if _, err := DecodeSnapshotBytes(binBuf); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkPolicyColdStart compares the first question of a fresh L2S
// session computed live against one served by paging a warm tree in from
// the store — the latency the store tier saves on popular instances.
func BenchmarkPolicyColdStart(b *testing.B) {
	inst := paperdata.FlightHotel()
	classes := PrecomputeClasses(inst)
	ctx := context.Background()
	base := []Option{WithStrategy(StrategyL2S), WithPrecomputedClasses(classes)}

	b.Run("live-compute", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			s := NewSession(inst, base...)
			if _, err := s.NextQuestions(ctx, 1); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("store-page-in", func(b *testing.B) {
		kv := store.NewMem()
		warm := NewPolicyCache(0)
		warm.AttachStore(kv, 0)
		s := NewSession(inst, append(append([]Option(nil), base...), WithPolicyCache(warm, "fh"))...)
		if _, err := s.NextQuestions(ctx, 1); err != nil {
			b.Fatal(err)
		}
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			// Fresh LRU each iteration: every lookup must page in from the
			// store, as it would on the first request after a restart.
			cold := NewPolicyCache(0)
			cold.AttachStore(kv, 0)
			s := NewSession(inst, append(append([]Option(nil), base...), WithPolicyCache(cold, "fh"))...)
			if _, err := s.NextQuestions(ctx, 1); err != nil {
				b.Fatal(err)
			}
		}
	})
}
