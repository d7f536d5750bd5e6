package joininference

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"math"
)

// Binary snapshot wire form. The JSON form (Encode/DecodeSnapshot) remains
// the human-readable interchange format; the binary form is what the
// persistent store keeps — an order of magnitude smaller and cheaper to
// decode than JSON for transcript-heavy sessions. Layout:
//
//	"JSNB" | 1B container version | uvarint Version | 1B kind |
//	uvarint len(Strategy) | Strategy | varint Seed | varint Budget |
//	varint Parallelism | uvarint RNGPos | uvarint len(Transcript) |
//	entries: uvarint RIndex | varint PIndex | 1B Positive
//
// Container version 2 appends, after the transcript, a one-byte soft flag;
// when the flag is 1 a soft section follows:
//
//	8B Threshold (IEEE-754 big-endian) | uvarint ErrorBudget |
//	uvarint Retractions | uvarint Votes | uvarint len(Beliefs) |
//	beliefs: uvarint RIndex | varint PIndex | 8B Pos | 8B Neg |
//	         uvarint len(Votes) | votes: uvarint len(Worker) | Worker |
//	         8B Weight | 1B Positive
//
// Snapshots without a soft section keep writing container version 1, so
// the store's existing records and older readers are both unaffected; the
// decoder accepts versions 1 and 2.
//
// The container version covers the framing above; the embedded Version
// field carries the same SnapshotVersion compatibility policy as the JSON
// form (see Snapshot), so the two forms stay semantically interchangeable:
// DecodeSnapshotBytes accepts either and both validate identically.
var snapshotMagic = []byte("JSNB")

// snapshotContainerVersion is the newest binary framing version the
// decoder understands (see the layout above for the history).
const snapshotContainerVersion = 2

// maxSnapshotStrategyLen bounds the strategy id length in a binary
// snapshot; real ids are a few bytes, anything huge is corruption.
const maxSnapshotStrategyLen = 256

// maxSnapshotWorkerLen bounds a worker id's length in a binary snapshot.
const maxSnapshotWorkerLen = 256

// AppendBinary appends the snapshot's binary form to buf.
func (sn *Snapshot) AppendBinary(buf []byte) []byte {
	buf = append(buf, snapshotMagic...)
	if sn.Soft != nil {
		buf = append(buf, snapshotContainerVersion)
	} else {
		// Hard snapshots keep the version-1 framing for old readers.
		buf = append(buf, 1)
	}
	buf = binary.AppendUvarint(buf, uint64(sn.Version))
	if sn.Kind == SnapshotKindSemijoin {
		buf = append(buf, 2)
	} else {
		buf = append(buf, 1)
	}
	buf = binary.AppendUvarint(buf, uint64(len(sn.Strategy)))
	buf = append(buf, sn.Strategy...)
	buf = binary.AppendVarint(buf, sn.Seed)
	buf = binary.AppendVarint(buf, int64(sn.Budget))
	buf = binary.AppendVarint(buf, int64(sn.Parallelism))
	buf = binary.AppendUvarint(buf, sn.RNGPos)
	buf = binary.AppendUvarint(buf, uint64(len(sn.Transcript)))
	for _, e := range sn.Transcript {
		buf = binary.AppendUvarint(buf, uint64(e.RIndex))
		buf = binary.AppendVarint(buf, int64(e.PIndex))
		if e.Positive {
			buf = append(buf, 1)
		} else {
			buf = append(buf, 0)
		}
	}
	if sn.Soft != nil {
		buf = append(buf, 1)
		buf = appendSoftBinary(buf, sn.Soft)
	}
	return buf
}

func appendFloat64(buf []byte, v float64) []byte {
	return binary.BigEndian.AppendUint64(buf, math.Float64bits(v))
}

func appendSoftBinary(buf []byte, soft *SoftSnapshot) []byte {
	buf = appendFloat64(buf, soft.Threshold)
	buf = binary.AppendUvarint(buf, uint64(soft.ErrorBudget))
	buf = binary.AppendUvarint(buf, uint64(soft.Retractions))
	buf = binary.AppendUvarint(buf, uint64(soft.Votes))
	buf = binary.AppendUvarint(buf, uint64(len(soft.Beliefs)))
	for _, b := range soft.Beliefs {
		buf = binary.AppendUvarint(buf, uint64(b.RIndex))
		buf = binary.AppendVarint(buf, int64(b.PIndex))
		buf = appendFloat64(buf, b.Pos)
		buf = appendFloat64(buf, b.Neg)
		buf = binary.AppendUvarint(buf, uint64(len(b.Votes)))
		for _, v := range b.Votes {
			buf = binary.AppendUvarint(buf, uint64(len(v.Worker)))
			buf = append(buf, v.Worker...)
			buf = appendFloat64(buf, v.Weight)
			if v.Positive {
				buf = append(buf, 1)
			} else {
				buf = append(buf, 0)
			}
		}
	}
	return buf
}

// DecodeBinarySnapshot parses a binary snapshot and validates it exactly
// as DecodeSnapshot validates the JSON form. Corrupt, truncated, or
// version-skewed input fails with an error wrapping ErrBadSnapshot — never
// a panic, and never a silently misparsed snapshot.
func DecodeBinarySnapshot(data []byte) (*Snapshot, error) {
	d := snapDecoder{b: data}
	if !bytes.HasPrefix(data, snapshotMagic) {
		return nil, fmt.Errorf("%w: not a binary snapshot", ErrBadSnapshot)
	}
	d.b = d.b[len(snapshotMagic):]
	cv := d.byte()
	if (cv < 1 || cv > snapshotContainerVersion) && d.err == nil {
		return nil, fmt.Errorf("%w: binary container version %d not supported", ErrBadSnapshot, cv)
	}
	var sn Snapshot
	sn.Version = int(d.uvarintMax(math.MaxInt32))
	switch d.byte() {
	case 1:
		sn.Kind = SnapshotKindJoin
	case 2:
		sn.Kind = SnapshotKindSemijoin
	default:
		if d.err == nil {
			return nil, fmt.Errorf("%w: unknown kind byte", ErrBadSnapshot)
		}
	}
	sn.Strategy = StrategyID(d.str(maxSnapshotStrategyLen))
	sn.Seed = d.varint()
	sn.Budget = int(d.varintRange(0, math.MaxInt32))
	sn.Parallelism = int(d.varintRange(math.MinInt32, math.MaxInt32))
	sn.RNGPos = d.uvarintMax(math.MaxUint64)
	count := d.uvarintMax(uint64(len(data))) // each entry takes ≥ 3 bytes
	if d.err == nil && count > 0 {
		sn.Transcript = make([]TranscriptEntry, 0, count)
		for i := uint64(0); i < count && d.err == nil; i++ {
			e := TranscriptEntry{
				RIndex:   int(d.uvarintMax(math.MaxInt32)),
				PIndex:   int(d.varintRange(-1, math.MaxInt32)),
				Positive: d.byte() == 1,
			}
			sn.Transcript = append(sn.Transcript, e)
		}
	}
	sn.Asked = len(sn.Transcript)
	if cv >= 2 {
		if d.byte() == 1 {
			sn.Soft = decodeSoftBinary(&d)
		}
	}
	if d.err != nil {
		return nil, d.err
	}
	if len(d.b) != 0 {
		return nil, fmt.Errorf("%w: %d trailing bytes", ErrBadSnapshot, len(d.b))
	}
	if err := sn.validate(); err != nil {
		return nil, err
	}
	return &sn, nil
}

// DecodeSnapshotBytes parses either wire form: binary (by magic) or JSON.
// The store holds binary records, while Snapshot.Encode and the HTTP API
// emit JSON — one decoder serves both, with identical validation.
func DecodeSnapshotBytes(data []byte) (*Snapshot, error) {
	if bytes.HasPrefix(data, snapshotMagic) {
		return DecodeBinarySnapshot(data)
	}
	return DecodeSnapshot(bytes.NewReader(data))
}

// decodeSoftBinary parses the container-v2 soft section; malformed input
// degrades to the decoder's sticky ErrBadSnapshot.
func decodeSoftBinary(d *snapDecoder) *SoftSnapshot {
	soft := &SoftSnapshot{
		Threshold:   d.float64(),
		ErrorBudget: int(d.uvarintMax(math.MaxInt32)),
		Retractions: int(d.uvarintMax(math.MaxInt32)),
		Votes:       int(d.uvarintMax(math.MaxInt32)),
	}
	count := d.uvarintMax(uint64(len(d.b)) + 1) // each belief takes ≥ 19 bytes
	for i := uint64(0); i < count && d.err == nil; i++ {
		b := BeliefEntry{
			RIndex: int(d.uvarintMax(math.MaxInt32)),
			PIndex: int(d.varintRange(-1, math.MaxInt32)),
			Pos:    d.float64(),
			Neg:    d.float64(),
		}
		votes := d.uvarintMax(uint64(len(d.b)) + 1) // each vote takes ≥ 10 bytes
		for j := uint64(0); j < votes && d.err == nil; j++ {
			b.Votes = append(b.Votes, WorkerVote{
				Worker:   d.str(maxSnapshotWorkerLen),
				Weight:   d.float64(),
				Positive: d.byte() == 1,
			})
		}
		soft.Beliefs = append(soft.Beliefs, b)
	}
	return soft
}

// snapDecoder is a cursor with sticky error state; every read is bounds-
// checked so corrupt input degrades to an ErrBadSnapshot, never a panic.
type snapDecoder struct {
	b   []byte
	err error
}

func (d *snapDecoder) fail(format string, args ...any) {
	if d.err == nil {
		d.err = fmt.Errorf("%w: %s", ErrBadSnapshot, fmt.Sprintf(format, args...))
	}
}

func (d *snapDecoder) byte() byte {
	if d.err != nil {
		return 0
	}
	if len(d.b) == 0 {
		d.fail("truncated")
		return 0
	}
	v := d.b[0]
	d.b = d.b[1:]
	return v
}

func (d *snapDecoder) uvarintMax(max uint64) uint64 {
	if d.err != nil {
		return 0
	}
	v, n := binary.Uvarint(d.b)
	if n <= 0 {
		d.fail("bad uvarint")
		return 0
	}
	if v > max {
		d.fail("value %d out of range", v)
		return 0
	}
	d.b = d.b[n:]
	return v
}

func (d *snapDecoder) varint() int64 {
	if d.err != nil {
		return 0
	}
	v, n := binary.Varint(d.b)
	if n <= 0 {
		d.fail("bad varint")
		return 0
	}
	d.b = d.b[n:]
	return v
}

func (d *snapDecoder) varintRange(lo, hi int64) int64 {
	v := d.varint()
	if d.err == nil && (v < lo || v > hi) {
		d.fail("value %d out of range [%d,%d]", v, lo, hi)
		return 0
	}
	return v
}

func (d *snapDecoder) float64() float64 {
	if d.err != nil {
		return 0
	}
	if len(d.b) < 8 {
		d.fail("truncated float")
		return 0
	}
	v := math.Float64frombits(binary.BigEndian.Uint64(d.b))
	d.b = d.b[8:]
	return v
}

func (d *snapDecoder) str(maxLen uint64) string {
	n := d.uvarintMax(maxLen)
	if d.err != nil {
		return ""
	}
	if uint64(len(d.b)) < n {
		d.fail("truncated string")
		return ""
	}
	s := string(d.b[:n])
	d.b = d.b[n:]
	return s
}
