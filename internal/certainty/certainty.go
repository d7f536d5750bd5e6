// Package certainty is the one implementation of the paper's PTIME
// certainty test (Theorem 3.5). Under a sample S, a tuple t with most
// specific predicate θ = T(t) is
//
//	certainly selected iff T(S+) ⊆ θ                        (Lemma 3.3)
//	certainly rejected iff ∃t′ ∈ S−: T(S+) ∩ θ ⊆ T(t′)       (Lemma 3.4)
//
// and informative iff it is unlabeled and neither (Lemma 3.2). The test
// depends on the sample only through T(S+) and the negatives, so a Kernel
// holds exactly those, as W-word spans of a pair universe of ⌈|Ω|/64⌉
// words. Predicates passed in may be shorter than W; missing words read as
// zero, as in package bitset.
//
// The sweeps over a flat arena of thetas (Delta, Gain, InformativeInto)
// are the innermost loops of the lookahead strategies: each distinct
// lattice node of a decision is swept once by Delta to fill the
// strategies' lattice table, and each mixed-sign L2S leaf adds one Gain
// sweep, which tests the base negatives only on the positions its extra
// negative covers. So they and the test come in three widths: one word
// (every schema in the paper), two words (65–128 pairs) and any width. A
// sweep switches once, not per test.
package certainty

// Kernel is the knowledge of a sample that certainty depends on. TPos is
// T(S+), W = len(TPos) words. Negs holds negative thetas, W words each;
// AddNegative keeps it ⊆-maximal, which is all Lemma 3.4 needs
// (inter ⊆ n ⊆ n′ implies inter ⊆ n′). A hypothetical kernel built by
// hand may list dominated negatives too; the answers are the same.
type Kernel struct {
	TPos []uint64
	Negs []uint64
}

// New returns the kernel of the empty sample: T(S+) = omega, the pair
// universe's full set, whose length fixes the width (at least one word).
func New(omega []uint64) Kernel {
	k := Kernel{TPos: make([]uint64, max(1, len(omega)))}
	copy(k.TPos, omega)
	return k
}

// AddPositive records a positive example: T(S+) becomes T(S+) ∩ theta.
func (k *Kernel) AddPositive(theta []uint64) {
	intersect(k.TPos, k.TPos, theta)
}

// AddNegative records a negative example and keeps Negs ⊆-maximal in one
// pass. A theta contained in a kept negative changes no certainty and is
// dropped (false); otherwise the kept negatives it contains are removed
// and theta is appended, zero-padded, as the last span (true). Since the
// kept negatives form an antichain, theta cannot both contain one and be
// contained in another unless all three are equal, so nothing is removed
// before a drop is detected.
func (k *Kernel) AddNegative(theta []uint64) bool {
	W := len(k.TPos)
	kept := k.Negs[:0]
	for off := 0; off < len(k.Negs); off += W {
		n := k.Negs[off : off+W]
		if subset(theta, n) {
			return false
		}
		if !subset(n, theta) {
			kept = append(kept, n...)
		}
	}
	k.Negs = pad(kept, theta, W)
	return true
}

// WithPositive returns the kernel extended by a hypothetical positive
// theta: T(S+) ∩ theta is written into buf (reusing its capacity), Negs is
// shared.
func (k *Kernel) WithPositive(buf, theta []uint64) Kernel {
	if cap(buf) < len(k.TPos) {
		buf = make([]uint64, len(k.TPos))
	}
	buf = buf[:len(k.TPos)]
	intersect(buf, k.TPos, theta)
	return Kernel{TPos: buf, Negs: k.Negs}
}

// WithNegative returns the kernel extended by a hypothetical negative
// theta: Negs and theta, zero-padded, are written into buf (reusing its
// capacity), T(S+) is shared.
func (k *Kernel) WithNegative(buf, theta []uint64) Kernel {
	return Kernel{TPos: k.TPos, Negs: pad(append(buf[:0], k.Negs...), theta, len(k.TPos))}
}

// Positive reports Lemma 3.3: every predicate consistent with the sample
// selects a tuple with most specific predicate theta.
func (k *Kernel) Positive(theta []uint64) bool {
	for i, t := range k.TPos {
		if t&^word(theta, i) != 0 {
			return false
		}
	}
	return true
}

// Negative reports Lemma 3.4: every predicate consistent with the sample
// rejects a tuple with most specific predicate theta.
func (k *Kernel) Negative(theta []uint64) bool {
	W := len(k.TPos)
	for off := 0; off < len(k.Negs); off += W {
		if covered(k.TPos, theta, k.Negs[off:off+W]) {
			return true
		}
	}
	return false
}

// Certain is the single test: a tuple with most specific predicate theta
// is certain (uninformative once unlabeled) under either lemma. It picks
// the width per call; the sweeps below pick it once per sweep.
func (k *Kernel) Certain(theta []uint64) bool {
	switch len(k.TPos) {
	case 1:
		return certain1(k.TPos[0], word(theta, 0), k.Negs)
	case 2:
		return certain2(k.TPos[0], k.TPos[1], word(theta, 0), word(theta, 1), k.Negs)
	}
	return k.certainN(theta)
}

// Delta returns the summed weights of the positions certain under k.
// thetas holds one W-word span per position, weights one weight each.
func (k *Kernel) Delta(thetas []uint64, weights []int64) int64 {
	var sum int64
	switch len(k.TPos) {
	case 1:
		t, negs := k.TPos[0], k.Negs
		for pos, th := range thetas {
			if certain1(t, th, negs) {
				sum += weights[pos]
			}
		}
	case 2:
		t0, t1, negs := k.TPos[0], k.TPos[1], k.Negs
		for pos, w := range weights {
			if certain2(t0, t1, thetas[2*pos], thetas[2*pos+1], negs) {
				sum += w
			}
		}
	default:
		W := len(k.TPos)
		for pos, w := range weights {
			if k.certainN(thetas[pos*W : (pos+1)*W]) {
				sum += w
			}
		}
	}
	return sum
}

// Gain returns the summed weights of the positions (as in Delta) that are
// not certain under k but whose meet T(S+) ∩ θ is ⊆ extra: what adding
// extra as a negative adds to Delta. A new negative leaves Lemma 3.3 as it
// is and adds to Lemma 3.4 exactly those positions, so Delta under
// N ∪ {extra} is Delta + Gain. Each position costs one AND and one subset
// test against extra; the base negatives are tested only on the positions
// extra covers.
func (k *Kernel) Gain(thetas []uint64, weights []int64, extra []uint64) int64 {
	var sum int64
	switch len(k.TPos) {
	case 1:
		t, x, negs := k.TPos[0], word(extra, 0), k.Negs
		for pos, th := range thetas {
			if inter := t & th; inter&^x == 0 && inter != t && !rejected1(inter, negs) {
				sum += weights[pos]
			}
		}
	case 2:
		t0, t1, negs := k.TPos[0], k.TPos[1], k.Negs
		x0, x1 := word(extra, 0), word(extra, 1)
		for pos, w := range weights {
			i0, i1 := t0&thetas[2*pos], t1&thetas[2*pos+1]
			if i0&^x0 == 0 && i1&^x1 == 0 && (i0 != t0 || i1 != t1) && !rejected2(i0, i1, negs) {
				sum += w
			}
		}
	default:
		W := len(k.TPos)
		for pos, w := range weights {
			th := thetas[pos*W : (pos+1)*W]
			if covered(k.TPos, th, extra) && !k.certainN(th) {
				sum += w
			}
		}
	}
	return sum
}

// InformativeInto appends to buf the positions of thetas (one W-word span
// each) not certain under k, and returns the extended buf.
func (k *Kernel) InformativeInto(thetas []uint64, buf []int32) []int32 {
	W := len(k.TPos)
	switch W {
	case 1:
		t, negs := k.TPos[0], k.Negs
		for pos, th := range thetas {
			if !certain1(t, th, negs) {
				buf = append(buf, int32(pos))
			}
		}
	case 2:
		t0, t1, negs := k.TPos[0], k.TPos[1], k.Negs
		for pos := 0; pos < len(thetas)/2; pos++ {
			if !certain2(t0, t1, thetas[2*pos], thetas[2*pos+1], negs) {
				buf = append(buf, int32(pos))
			}
		}
	default:
		for pos := 0; pos < len(thetas)/W; pos++ {
			if !k.certainN(thetas[pos*W : (pos+1)*W]) {
				buf = append(buf, int32(pos))
			}
		}
	}
	return buf
}

// certainN is Certain on spans of any width. The sweeps call it, not both
// lemmas inline, which keeps their one-word loop in one 32-byte code block:
// straddling a cache line cost cold-lookahead ~9% CPU on a 2-vCPU Xeon VM.
func (k *Kernel) certainN(theta []uint64) bool { return k.Positive(theta) || k.Negative(theta) }

// certain1 is Certain on one-word spans.
func certain1(t, th uint64, negs []uint64) bool {
	inter := t & th
	return inter == t || rejected1(inter, negs) // Lemma 3.3 (tpos ⊆ theta) or 3.4
}

// rejected1 is Lemma 3.4 on one-word spans: inter ⊆ some negative.
func rejected1(inter uint64, negs []uint64) bool {
	for _, n := range negs {
		if inter&^n == 0 {
			return true
		}
	}
	return false
}

// certain2 is Certain on two-word spans.
func certain2(t0, t1, th0, th1 uint64, negs []uint64) bool {
	i0, i1 := t0&th0, t1&th1
	return i0 == t0 && i1 == t1 || rejected2(i0, i1, negs) // Lemma 3.3 or 3.4
}

// rejected2 is Lemma 3.4 on two-word spans.
func rejected2(i0, i1 uint64, negs []uint64) bool {
	for off := 0; off+1 < len(negs); off += 2 {
		if i0&^negs[off] == 0 && i1&^negs[off+1] == 0 {
			return true
		}
	}
	return false
}

// covered reports tpos ∩ theta ⊆ n for a W-word tpos, reading n past its
// end as zero.
func covered(tpos, theta, n []uint64) bool {
	for i, th := range theta {
		if tpos[i]&th&^word(n, i) != 0 {
			return false
		}
	}
	return true
}

// subset reports a ⊆ b, reading either span past its end as zero.
func subset(a, b []uint64) bool {
	for i, w := range a {
		if w&^word(b, i) != 0 {
			return false
		}
	}
	return true
}

// intersect writes a ∩ b into dst (len(a) words); dst may alias a.
func intersect(dst, a, b []uint64) {
	for i, w := range a {
		dst[i] = w & word(b, i)
	}
}

// pad appends theta to dst, zero-padded to w words.
func pad(dst, theta []uint64, w int) []uint64 {
	dst = append(dst, theta...)
	for range w - len(theta) {
		dst = append(dst, 0)
	}
	return dst
}

// word returns span s's i-th word, zero past its end.
func word(s []uint64, i int) uint64 {
	if i < len(s) {
		return s[i]
	}
	return 0
}
