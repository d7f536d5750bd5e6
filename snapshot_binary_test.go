package joininference

import (
	"bytes"
	"context"
	"errors"
	"reflect"
	"testing"

	"repro/internal/paperdata"
)

// sessionSnapshot drives a session a few answers deep against an honest
// oracle and returns its snapshot — transcript, strategy config, RNG
// position and all.
func sessionSnapshot(t testing.TB, inst *Instance, goal Pred, semijoin bool, opts ...Option) *Snapshot {
	t.Helper()
	var s *Session
	if semijoin {
		s = NewSemijoinSession(inst, opts...)
	} else {
		s = NewSession(inst, opts...)
	}
	ctx := context.Background()
	oracle := HonestOracle(goal)
	for i := 0; i < 3; i++ {
		qs, err := s.NextQuestions(ctx, 1)
		if err != nil {
			t.Fatal(err)
		}
		if len(qs) == 0 {
			break
		}
		l, err := oracle.Label(ctx, qs[0])
		if err != nil {
			t.Fatal(err)
		}
		if err := s.Answer(qs[0], l); err != nil {
			t.Fatal(err)
		}
	}
	sn, err := s.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	return sn
}

func sameSnapshot(t *testing.T, name string, want, got *Snapshot) {
	t.Helper()
	if got.Version != want.Version || got.Kind != want.Kind || got.Strategy != want.Strategy ||
		got.Seed != want.Seed || got.Budget != want.Budget || got.Parallelism != want.Parallelism ||
		got.RNGPos != want.RNGPos || got.Asked != want.Asked || len(got.Transcript) != len(want.Transcript) {
		t.Fatalf("%s: decoded %+v, want %+v", name, got, want)
	}
	for i := range want.Transcript {
		if got.Transcript[i] != want.Transcript[i] {
			t.Fatalf("%s: transcript entry %d = %+v, want %+v", name, i, got.Transcript[i], want.Transcript[i])
		}
	}
}

// TestBinarySnapshotRoundTrip: the binary form round-trips every field
// exactly — for join and semijoin sessions, every strategy, and non-default
// budget/parallelism — and the resumed session matches the original.
func TestBinarySnapshotRoundTrip(t *testing.T) {
	inst := paperdata.FlightHotel()
	u := NewSession(inst).Universe()
	goal, err := PredFromNames(u, [2]string{"To", "City"})
	if err != nil {
		t.Fatal(err)
	}
	for _, id := range KnownStrategies() {
		want := sessionSnapshot(t, inst, goal, false,
			WithStrategy(id), WithSeed(17), WithBudget(9), WithParallelism(4))
		got, err := DecodeBinarySnapshot(want.AppendBinary(nil))
		if err != nil {
			t.Fatalf("%s: %v", id, err)
		}
		sameSnapshot(t, string(id), want, got)
		// Resuming from the binary round trip behaves like the original.
		if _, err := ResumeSession(inst, got); err != nil {
			t.Fatalf("%s: resume after round trip: %v", id, err)
		}
	}

	sj := paperdata.Example21()
	sju := NewSemijoinSession(sj).Universe()
	sjGoal, err := PredFromNames(sju, [2]string{"A1", "B2"})
	if err != nil {
		t.Fatal(err)
	}
	want := sessionSnapshot(t, sj, sjGoal, true)
	got, err := DecodeBinarySnapshot(want.AppendBinary(nil))
	if err != nil {
		t.Fatal(err)
	}
	sameSnapshot(t, "semijoin", want, got)
}

// TestSnapshotWireFormsDecodeAlike: the JSON and the binary form of one
// snapshot decode to the same snapshot.
func TestSnapshotWireFormsDecodeAlike(t *testing.T) {
	inst := paperdata.FlightHotel()
	u := NewSession(inst).Universe()
	goal, err := PredFromNames(u, [2]string{"To", "City"})
	if err != nil {
		t.Fatal(err)
	}
	want := sessionSnapshot(t, inst, goal, false, WithStrategy(StrategyRND), WithSeed(5))

	var jsonBuf bytes.Buffer
	if err := want.Encode(&jsonBuf); err != nil {
		t.Fatal(err)
	}
	fromJSON, err := decodeWire(jsonBuf.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	sameSnapshot(t, "json", want, fromJSON)

	fromBinary, err := decodeWire(want.AppendBinary(nil))
	if err != nil {
		t.Fatal(err)
	}
	sameSnapshot(t, "binary", want, fromBinary)
}

// decodeWire decodes either snapshot form: binary by its magic, else JSON.
func decodeWire(data []byte) (*Snapshot, error) {
	if bytes.HasPrefix(data, snapshotMagic) {
		return DecodeBinarySnapshot(data)
	}
	return DecodeSnapshot(bytes.NewReader(data))
}

// TestBinarySnapshotRejectsCorrupt: every truncation of a valid binary
// snapshot, plus bad magic, skewed versions and trailing bytes, fails with
// ErrBadSnapshot — never a panic, never a misparse.
func TestBinarySnapshotRejectsCorrupt(t *testing.T) {
	inst := paperdata.FlightHotel()
	u := NewSession(inst).Universe()
	goal, err := PredFromNames(u, [2]string{"To", "City"})
	if err != nil {
		t.Fatal(err)
	}
	valid := sessionSnapshot(t, inst, goal, false, WithStrategy(StrategyL2S)).AppendBinary(nil)
	for cut := 0; cut < len(valid); cut++ {
		if _, err := DecodeBinarySnapshot(valid[:cut]); !errors.Is(err, ErrBadSnapshot) {
			t.Fatalf("truncation at %d: err = %v, want ErrBadSnapshot", cut, err)
		}
	}
	cases := map[string][]byte{
		"bad magic":         append([]byte("XXXX"), valid[4:]...),
		"container version": append(append([]byte(nil), valid[:4]...), append([]byte{99}, valid[5:]...)...),
		"trailing bytes":    append(append([]byte(nil), valid...), 0),
		"empty":             nil,
	}
	// A snapshot Version above SnapshotVersion must fail validation through
	// the binary path too.
	future := &Snapshot{Version: SnapshotVersion + 1, Kind: SnapshotKindJoin}
	cases["future version"] = future.AppendBinary(nil)
	for name, data := range cases {
		if _, err := DecodeBinarySnapshot(data); !errors.Is(err, ErrBadSnapshot) {
			t.Errorf("%s: err = %v, want ErrBadSnapshot", name, err)
		}
	}
}

// TestAllocFreeSnapshotAppend: the binary encoder runs on every persisted
// answer, so appending into a buffer with room allocates nothing.
func TestAllocFreeSnapshotAppend(t *testing.T) {
	inst, goal := liarInstance(t)
	sn := sessionSnapshot(t, inst, goal, false, WithSoftInference(2), WithErrorBudget(1))
	buf := make([]byte, 0, 4096)
	if allocs := testing.AllocsPerRun(100, func() { buf = sn.AppendBinary(buf[:0]) }); allocs != 0 {
		t.Errorf("AppendBinary allocates %v times per call", allocs)
	}
}

// FuzzDecodeSnapshot: arbitrary bytes through the auto-detecting decoder
// must either fail with ErrBadSnapshot or produce a snapshot that validates
// and survives a binary re-encode round trip. Never a panic.
func FuzzDecodeSnapshot(f *testing.F) {
	inst := paperdata.FlightHotel()
	u := NewSession(inst).Universe()
	goal, err := PredFromNames(u, [2]string{"To", "City"})
	if err != nil {
		f.Fatal(err)
	}
	join := sessionSnapshot(f, inst, goal, false, WithStrategy(StrategyRND), WithSeed(3))
	f.Add(join.AppendBinary(nil))
	var jsonBuf bytes.Buffer
	join.Encode(&jsonBuf)
	f.Add(jsonBuf.Bytes())
	sjInst := paperdata.Example21()
	sjU := NewSemijoinSession(sjInst).Universe()
	sjGoal, err := PredFromNames(sjU, [2]string{"A1", "B2"})
	if err != nil {
		f.Fatal(err)
	}
	f.Add(sessionSnapshot(f, sjInst, sjGoal, true).AppendBinary(nil))
	// Soft sessions exercise the version-2 container and the Soft section:
	// threshold 2 leaves the final vote pending, so the seed carries both
	// committed beliefs and undecided evidence.
	soft := sessionSnapshot(f, inst, goal, false, WithSoftInference(2), WithErrorBudget(1))
	f.Add(soft.AppendBinary(nil))
	var softJSON bytes.Buffer
	soft.Encode(&softJSON)
	f.Add(softJSON.Bytes())
	f.Add(sessionSnapshot(f, sjInst, sjGoal, true, WithSoftInference(2)).AppendBinary(nil))
	f.Add([]byte("JSNB"))
	f.Add([]byte(`{"version":1,"kind":"join","seed":1,"asked":0,"transcript":[]}`))
	f.Add([]byte(`{"version":2,"kind":"join","seed":1,"asked":0,"soft":{"threshold":1}}`))
	// A budget the binary form cannot hold: validation refuses it, so it
	// never reaches the store.
	f.Add([]byte(`{"version":1,"kind":"join","seed":1,"budget":-1,"asked":0}`))
	f.Fuzz(func(t *testing.T, data []byte) {
		sn, err := decodeWire(data)
		if err != nil {
			if bytes.HasPrefix(data, []byte("JSNB")) && !errors.Is(err, ErrBadSnapshot) {
				t.Fatalf("binary decode error does not wrap ErrBadSnapshot: %v", err)
			}
			return
		}
		if err := sn.Validate(); err != nil {
			t.Fatalf("decoder returned an invalid snapshot: %v", err)
		}
		again, err := DecodeBinarySnapshot(sn.AppendBinary(nil))
		if err != nil {
			t.Fatalf("binary re-encode of a decoded snapshot failed: %v", err)
		}
		if again.Version != sn.Version || again.Kind != sn.Kind || again.Strategy != sn.Strategy ||
			again.Seed != sn.Seed || again.Budget != sn.Budget || again.Parallelism != sn.Parallelism ||
			again.RNGPos != sn.RNGPos || len(again.Transcript) != len(sn.Transcript) {
			t.Fatalf("round trip diverged: %+v vs %+v", again, sn)
		}
		if (again.Soft == nil) != (sn.Soft == nil) {
			t.Fatalf("round trip toggled the soft section: %+v vs %+v", again.Soft, sn.Soft)
		}
		if sn.Soft != nil {
			if again.Soft.Threshold != sn.Soft.Threshold || again.Soft.ErrorBudget != sn.Soft.ErrorBudget ||
				again.Soft.Retractions != sn.Soft.Retractions || again.Soft.Votes != sn.Soft.Votes ||
				len(again.Soft.Beliefs) != len(sn.Soft.Beliefs) {
				t.Fatalf("soft section diverged: %+v vs %+v", again.Soft, sn.Soft)
			}
		}
	})
}

// TestInstanceCacheRoundTrip: the registry cache record rebuilds the exact
// instance and class set — same tuples, same canonical class order, same
// recomputed Theta — so sessions over the decoded entry ask bit-identical
// questions.
func TestInstanceCacheRoundTrip(t *testing.T) {
	inst := paperdata.FlightHotel()
	cs := PrecomputeClasses(inst)
	inst2, cs2, err := DecodeInstanceCache(EncodeInstanceCache(inst, cs))
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(inst.R.Tuples, inst2.R.Tuples) || !reflect.DeepEqual(inst.P.Tuples, inst2.P.Tuples) {
		t.Fatal("tuples diverged through the cache record")
	}
	if !reflect.DeepEqual(inst.R.Schema, inst2.R.Schema) || !reflect.DeepEqual(inst.P.Schema, inst2.P.Schema) {
		t.Fatal("schemas diverged through the cache record")
	}
	if len(cs.classes) != len(cs2.classes) {
		t.Fatalf("%d classes, want %d", len(cs2.classes), len(cs.classes))
	}
	for i := range cs.classes {
		a, b := cs.classes[i], cs2.classes[i]
		if a.RI != b.RI || a.PI != b.PI || a.Count != b.Count {
			t.Fatalf("class %d: (%d,%d,%d) vs (%d,%d,%d)", i, b.RI, b.PI, b.Count, a.RI, a.PI, a.Count)
		}
		if !a.Theta.Equal(b.Theta) {
			t.Fatalf("class %d: recomputed Theta diverged", i)
		}
	}

	// The decoded entry drives sessions bit-identically to the original.
	u := NewSession(inst).Universe()
	goal, err := PredFromNames(u, [2]string{"To", "City"})
	if err != nil {
		t.Fatal(err)
	}
	ref := questionSeq(t, NewSession(inst, WithStrategy(StrategyL2S), WithPrecomputedClasses(cs)), goal, 2)
	got := questionSeq(t, NewSession(inst2, WithStrategy(StrategyL2S), WithPrecomputedClasses(cs2)), goal, 2)
	sameSeq(t, "decoded instance cache", ref, got)

	// The decoded set records the decoded instance, so semijoin sessions
	// over it share its witness table.
	if tbl := cs2.witnesses(); tbl.Instance() != inst2 {
		t.Fatal("decoded class set is not bound to the decoded instance")
	}
}

// TestInstanceCacheRejectsCorrupt: truncations and tampered records fail
// with ErrBadSnapshot, never panic.
func TestInstanceCacheRejectsCorrupt(t *testing.T) {
	inst := paperdata.FlightHotel()
	valid := EncodeInstanceCache(inst, PrecomputeClasses(inst))
	for cut := 0; cut < len(valid); cut += 7 {
		if _, _, err := DecodeInstanceCache(valid[:cut]); !errors.Is(err, ErrBadSnapshot) {
			t.Fatalf("truncation at %d: err = %v, want ErrBadSnapshot", cut, err)
		}
	}
	if _, _, err := DecodeInstanceCache(append(append([]byte(nil), valid...), 1)); !errors.Is(err, ErrBadSnapshot) {
		t.Error("trailing bytes accepted")
	}
	bad := append([]byte(nil), valid...)
	bad[4] = 99 // version byte
	if _, _, err := DecodeInstanceCache(bad); !errors.Is(err, ErrBadSnapshot) {
		t.Error("version skew accepted")
	}
	if _, _, err := DecodeInstanceCache([]byte("not a record")); !errors.Is(err, ErrBadSnapshot) {
		t.Error("bad magic accepted")
	}
	// A tampered class record must be caught, not replayed into a panic.
	tail := EncodeInstanceCache(inst, &ClassSet{classes: PrecomputeClasses(inst).classes[:1]})
	tail[len(tail)-3] = 0xFF // corrupt the final class varints
	if _, _, err := DecodeInstanceCache(tail); err == nil {
		t.Error("corrupt class record accepted")
	}
}

// FuzzDecodeInstanceCache: arbitrary bytes must either fail with
// ErrBadSnapshot or decode to an instance whose re-encoded record decodes
// again to the same bytes. Never a panic.
func FuzzDecodeInstanceCache(f *testing.F) {
	inst := paperdata.FlightHotel()
	upd, err := ApplyDelta(inst, PrecomputeClasses(inst), Delta{
		InsertR: []Tuple{{"NYC", "Lille", "BA"}},
		DeleteR: []int{0},
		DeleteP: []int{1},
	})
	if err != nil {
		f.Fatal(err)
	}
	for _, rec := range [][]byte{
		EncodeInstanceCache(inst, PrecomputeClasses(inst)),
		EncodeInstanceCache(upd.To, upd.Classes),
	} {
		for _, cut := range []int{len(rec), len(rec) - 1, len(rec) / 2, 5} {
			f.Add(rec[:cut])
		}
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		inst, cs, err := DecodeInstanceCache(data)
		if err != nil {
			if !errors.Is(err, ErrBadSnapshot) {
				t.Fatalf("decode error does not wrap ErrBadSnapshot: %v", err)
			}
			return
		}
		enc := EncodeInstanceCache(inst, cs)
		inst2, cs2, err := DecodeInstanceCache(enc)
		if err != nil {
			t.Fatalf("re-encode of a decoded record failed: %v", err)
		}
		if !bytes.Equal(enc, EncodeInstanceCache(inst2, cs2)) {
			t.Fatal("round trip diverged")
		}
	})
}
