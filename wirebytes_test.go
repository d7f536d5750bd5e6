package joininference

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"testing"

	"repro/internal/paperdata"
	"repro/internal/policy"
	"repro/internal/predicate"
	"repro/internal/store"
)

// TestWireBytes pins the exact bytes four fixed sessions put on the wire —
// the binary and JSON snapshot forms and the policy-cache node key (tree key
// plus answer prefix plus RND position) — as SHA-256 digests. Every other
// suite checks that two code paths agree; this one fails when a refactor
// changes what an older build wrote to the store or a peer cached. Each
// snapshot also decodes from both forms back to the same bytes. The
// store-records subtest pins the records no session here writes.
func TestWireBytes(t *testing.T) {
	ctx := context.Background()
	cases := []struct {
		name                 string
		run                  func(t *testing.T, pc *PolicyCache) *Session
		binary, json, policy string
	}{
		{
			// A hard TD join on FlightHotel, run to the halt condition.
			name: "hard-td-join",
			run: func(t *testing.T, pc *PolicyCache) *Session {
				inst, goal := liarInstance(t)
				s := NewSession(inst, WithStrategy(StrategyTD), WithPolicyCache(pc, "wire"))
				if _, err := Run(ctx, s, HonestOracle(goal)); err != nil {
					t.Fatal(err)
				}
				return s
			},
			binary: "cedc7d4d247dfb736d1c1649c97c60800cac9bf1264fedf045b4d4af961148d2",
			json:   "032f0eb8ff634de6bcb104525950b55ba33f8611754d27182127768ceff1097f",
			policy: "cc10ae5eae8cd866e57d8802eae475c7904ef249a4a2bb6b1b79d4474aeb6e96",
		},
		{
			// RND with seed 7: one answer, then a fetch left unanswered, so
			// the snapshot's RNGPos and the node key's stream position differ
			// and are both non-zero.
			name: "rnd-join-outstanding",
			run: func(t *testing.T, pc *PolicyCache) *Session {
				inst, goal := liarInstance(t)
				s := NewSession(inst, WithStrategy(StrategyRND), WithSeed(7), WithPolicyCache(pc, "wire"))
				answerHonestly(t, s, goal, 1)
				if qs, err := s.NextQuestions(ctx, 1); err != nil || len(qs) != 1 {
					t.Fatalf("outstanding fetch: %v, %v", qs, err)
				}
				if s.rngMark == 0 || s.policyRNGPos() == s.rngMark {
					t.Fatalf("stream positions: marked %d, live %d", s.rngMark, s.policyRNGPos())
				}
				return s
			},
			binary: "ba62e2cd526267d5b41b2e5ef6695e45d53b18e56b9408d0d4ad8d3f38db467a",
			json:   "a536cf498fedf5040d2240972fefb14b6856b389b2c6df0f50d09471987505ed",
			policy: "2e7adafc9d014f9da8a0d1e1f702b9a832ae276c5ad126f659d5c2f120d28b16",
		},
		{
			// A soft join with an error budget of 1 and one planted lie that
			// the retraction search absorbs.
			name: "soft-join-lie",
			run: func(t *testing.T, pc *PolicyCache) *Session {
				inst, goal := liarInstance(t)
				s := NewSession(inst, WithStrategy(StrategyL1S), WithErrorBudget(1), WithPolicyCache(pc, "wire"))
				o := &lyingOracle{honest: HonestOracle(goal), flipAt: 0}
				for s.SoftStats().Retractions == 0 {
					qs, err := s.NextQuestions(ctx, 3)
					if err != nil || len(qs) == 0 {
						t.Fatalf("planted lie never retracted: %v, %v", qs, err)
					}
					for _, q := range qs {
						l, _ := o.Label(ctx, q)
						if err := s.AnswerVote(q, l, Vote{}); err != nil {
							t.Fatal(err)
						}
					}
				}
				return s
			},
			binary: "dfe2b30d959bcc0552923b18db5b19a809942a8e705eb844a933805ff2d3c0f0",
			json:   "0b74b945ca2404de3950534d6788a72d92986046664b9aaab1a707e016dd0d64",
			policy: "e3edafbefd5537c56ba56659b3c0ce48dd8f87e9faf5e3fddf1b59d18abce85d",
		},
		{
			// A soft semijoin on Example 2.1 at threshold 2: one row commits on
			// two agreeing votes, one row holds a single pending vote.
			name: "soft-semijoin",
			run: func(t *testing.T, pc *PolicyCache) *Session {
				inst := paperdata.Example21()
				goal := predicate.MustFromNames(predicate.NewUniverse(inst), [2]string{"A1", "B2"})
				s := NewSemijoinSession(inst, WithSoftInference(2), WithErrorBudget(1), WithPolicyCache(pc, "wire"))
				qs, err := s.NextQuestions(ctx, 2)
				if err != nil || len(qs) != 2 {
					t.Fatalf("semijoin fetch: %v, %v", qs, err)
				}
				for _, v := range []struct {
					q Question
					w string
				}{{qs[0], "ann"}, {qs[0], "bob"}, {qs[1], "cat"}} {
					l, _ := HonestOracle(goal).Label(ctx, v.q)
					if err := s.AnswerVote(v.q, l, Vote{Worker: v.w, Weight: 1}); err != nil {
						t.Fatal(err)
					}
				}
				if st := s.SoftStats(); st.Votes != 3 || st.Pending != 1 || s.Questions() != 1 {
					t.Fatalf("soft semijoin state: %+v after %d commits", st, s.Questions())
				}
				return s
			},
			binary: "430863d13028a6faa33733e96ec0a1948fa74933b95d3d3ffff255a560539112",
			json:   "aa78e846186d9a0d72146fb69db07283b9e19e20de8aef1ccac7125af84fc46d",
			policy: "ac3d2d4fd19d31b708c738c887ebbefd22de42a4ff54ecdd17dd17c0710dc35f",
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			s := tc.run(t, NewPolicyCache(0))
			sn, err := s.Snapshot()
			if err != nil {
				t.Fatal(err)
			}
			var js bytes.Buffer
			if err := sn.Encode(&js); err != nil {
				t.Fatal(err)
			}
			prefix, ok := s.policyPrefix()
			if !ok {
				t.Fatal("no policy prefix")
			}
			k := s.policyTreeKey()
			node := store.PolicyNodeKey(k.Instance, k.Version, k.Strategy, k.Seed, prefix, s.policyRNGPos())
			bin := sn.AppendBinary(nil)
			for _, d := range []struct{ what, got, want string }{
				{"binary snapshot", digest(bin), tc.binary},
				{"JSON snapshot", digest(js.Bytes()), tc.json},
				{"policy node key", digest(node), tc.policy},
			} {
				if d.got != d.want {
					t.Errorf("%s digest %s, want %s", d.what, d.got, d.want)
				}
			}
			// Both forms decode back to a snapshot with the same binary bytes.
			for _, w := range []struct {
				form  string
				bytes []byte
			}{{"binary", bin}, {"JSON", js.Bytes()}} {
				back, err := decodeWire(w.bytes)
				if err != nil {
					t.Fatalf("decoding the %s snapshot: %v", w.form, err)
				}
				if got := digest(back.AppendBinary(nil)); got != tc.binary {
					t.Errorf("%s snapshot decodes to binary digest %s, want %s", w.form, got, tc.binary)
				}
			}
		})
	}
	t.Run("store-records", wireRecords)
}

// wireRecords pins the store records that no session of TestWireBytes
// writes: a delta-log record with inserts and deletes on both sides, a
// policy-node value with pivots, and the instance-cache record of an
// ingested instance (tombstones, version > 0).
func wireRecords(t *testing.T) {
	inst := paperdata.FlightHotel()
	d := Delta{
		InsertR: []Tuple{{"NYC", "Lille", "BA"}, {"Lille", "Paris", "AF"}},
		InsertP: []Tuple{{"Lille", "BA"}},
		DeleteR: []int{0, 2},
		DeleteP: []int{1},
	}
	upd, err := ApplyDelta(inst, PrecomputeClasses(inst), d)
	if err != nil {
		t.Fatal(err)
	}
	if upd.To.Version() == 0 || len(upd.To.DeadR()) == 0 {
		t.Fatalf("ingested instance at version %d, dead rows %v", upd.To.Version(), upd.To.DeadR())
	}
	for _, r := range []struct {
		name  string
		bytes []byte
		want  string
	}{
		{"delta record", store.EncodeDelta(nil, d), "dee15acc89b163311b097553a2fd1091406b8b3bdc7b50fe13a1d3e172b76703"},
		{"policy node", store.EncodePolicyNode(nil, policy.Node{Chosen: 5, Complete: true, RNGAfter: 300, Pivots: []int{5, 0, 129}}), "98ef74562b06e48d4171de80939ccfb643b324e11cc5123b4bfa5a31eb3bb08c"},
		{"instance cache", EncodeInstanceCache(upd.To, upd.Classes), "98787eec7772b4ef6d459ef7c79f4f366e006e1899cd6b352b345674c6306995"},
	} {
		if got := digest(r.bytes); got != r.want {
			t.Errorf("%s digest %s, want %s", r.name, got, r.want)
		}
	}
}

func digest(b []byte) string {
	sum := sha256.Sum256(b)
	return hex.EncodeToString(sum[:])
}

// answerHonestly fetches and answers n questions one at a time.
func answerHonestly(t *testing.T, s *Session, goal Pred, n int) {
	t.Helper()
	for i := 0; i < n; i++ {
		qs, err := s.NextQuestions(context.Background(), 1)
		if err != nil || len(qs) != 1 {
			t.Fatalf("fetch %d: %v, %v", i, qs, err)
		}
		l, _ := HonestOracle(goal).Label(context.Background(), qs[0])
		if err := s.Answer(qs[0], l); err != nil {
			t.Fatal(err)
		}
	}
}
