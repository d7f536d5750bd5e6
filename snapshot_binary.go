package joininference

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"math"

	"repro/internal/wire"
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
// decoder accepts versions 1 and 2. Flag bytes are 0 or 1.
//
// The container version covers the framing above; the embedded Version
// field carries the same SnapshotVersion compatibility policy as the JSON
// form (see Snapshot), so the two forms stay semantically interchangeable:
// DecodeSnapshot and DecodeBinarySnapshot validate identically.
var snapshotMagic = []byte("JSNB")

// snapshotContainerVersion is the newest binary framing version the
// decoder understands (see the layout above for the history).
const snapshotContainerVersion = 2

// Limits of the binary form. Snapshot.validate enforces them, so every
// snapshot a session or a JSON resume produces decodes again; the decoder
// rejects anything beyond them as corrupt.
const (
	maxSnapshotStrategyLen = 256 // bytes of Strategy
	maxSnapshotWorkerLen   = 256 // bytes of a vote's Worker
	// maxSnapshotInt bounds Version, Budget, Parallelism, row indexes and
	// the soft counters; minSnapshotParallelism is Parallelism's floor.
	maxSnapshotInt         = math.MaxInt32
	minSnapshotParallelism = math.MinInt32
)

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
	buf = wire.AppendString(buf, string(sn.Strategy))
	buf = binary.AppendVarint(buf, sn.Seed)
	buf = binary.AppendVarint(buf, int64(sn.Budget))
	buf = binary.AppendVarint(buf, int64(sn.Parallelism))
	buf = binary.AppendUvarint(buf, sn.RNGPos)
	buf = binary.AppendUvarint(buf, uint64(len(sn.Transcript)))
	for _, e := range sn.Transcript {
		buf = binary.AppendUvarint(buf, uint64(e.RIndex))
		buf = binary.AppendVarint(buf, int64(e.PIndex))
		buf = wire.AppendFlag(buf, e.Positive)
	}
	if sn.Soft != nil {
		buf = append(buf, 1)
		buf = appendSoftBinary(buf, sn.Soft)
	}
	return buf
}

func appendSoftBinary(buf []byte, soft *SoftSnapshot) []byte {
	buf = wire.AppendFloat64(buf, soft.Threshold)
	buf = binary.AppendUvarint(buf, uint64(soft.ErrorBudget))
	buf = binary.AppendUvarint(buf, uint64(soft.Retractions))
	buf = binary.AppendUvarint(buf, uint64(soft.Votes))
	buf = binary.AppendUvarint(buf, uint64(len(soft.Beliefs)))
	for _, b := range soft.Beliefs {
		buf = binary.AppendUvarint(buf, uint64(b.RIndex))
		buf = binary.AppendVarint(buf, int64(b.PIndex))
		buf = wire.AppendFloat64(buf, b.Pos)
		buf = wire.AppendFloat64(buf, b.Neg)
		buf = binary.AppendUvarint(buf, uint64(len(b.Votes)))
		for _, v := range b.Votes {
			buf = wire.AppendString(buf, v.Worker)
			buf = wire.AppendFloat64(buf, v.Weight)
			buf = wire.AppendFlag(buf, v.Positive)
		}
	}
	return buf
}

// DecodeBinarySnapshot parses a binary snapshot and validates it exactly
// as DecodeSnapshot validates the JSON form. Corrupt, truncated, or
// version-skewed input fails with an error wrapping ErrBadSnapshot — never
// a panic, and never a silently misparsed snapshot.
func DecodeBinarySnapshot(data []byte) (*Snapshot, error) {
	if !bytes.HasPrefix(data, snapshotMagic) {
		return nil, fmt.Errorf("%w: not a binary snapshot", ErrBadSnapshot)
	}
	d := wire.NewDec(data[len(snapshotMagic):], ErrBadSnapshot)
	cv := d.Byte()
	if cv < 1 || cv > snapshotContainerVersion {
		d.Failf("binary container version %d not supported", cv)
	}
	var sn Snapshot
	sn.Version = int(d.Uvarint(maxSnapshotInt))
	switch d.Byte() {
	case 1:
		sn.Kind = SnapshotKindJoin
	case 2:
		sn.Kind = SnapshotKindSemijoin
	default:
		d.Failf("unknown kind byte")
	}
	sn.Strategy = StrategyID(d.Str(maxSnapshotStrategyLen))
	sn.Seed = d.Varint(math.MinInt64, math.MaxInt64)
	sn.Budget = int(d.Varint(0, maxSnapshotInt))
	sn.Parallelism = int(d.Varint(minSnapshotParallelism, maxSnapshotInt))
	sn.RNGPos = d.Uvarint(MaxSnapshotRNGPos)
	if n := d.Count(3); n > 0 { // an entry takes ≥ 3 bytes
		sn.Transcript = make([]TranscriptEntry, n)
		for i := range sn.Transcript {
			sn.Transcript[i] = TranscriptEntry{
				RIndex:   int(d.Uvarint(maxSnapshotInt)),
				PIndex:   int(d.Varint(-1, maxSnapshotInt)),
				Positive: d.Flag(),
			}
		}
	}
	sn.Asked = len(sn.Transcript)
	if cv >= 2 && d.Flag() {
		sn.Soft = decodeSoftBinary(&d)
	}
	if err := d.Finish(); err != nil {
		return nil, err
	}
	if err := sn.validate(); err != nil {
		return nil, err
	}
	return &sn, nil
}

// decodeSoftBinary parses the container-v2 soft section; malformed input
// degrades to the decoder's sticky ErrBadSnapshot.
func decodeSoftBinary(d *wire.Dec) *SoftSnapshot {
	soft := &SoftSnapshot{
		Threshold:   d.Float64(),
		ErrorBudget: int(d.Uvarint(maxSnapshotInt)),
		Retractions: int(d.Uvarint(maxSnapshotInt)),
		Votes:       int(d.Uvarint(maxSnapshotInt)),
	}
	for i, n := 0, d.Count(19); i < n && d.Err() == nil; i++ { // a belief takes ≥ 19 bytes
		b := BeliefEntry{
			RIndex: int(d.Uvarint(maxSnapshotInt)),
			PIndex: int(d.Varint(-1, maxSnapshotInt)),
			Pos:    d.Float64(),
			Neg:    d.Float64(),
		}
		for j, m := 0, d.Count(10); j < m && d.Err() == nil; j++ { // a vote takes ≥ 10 bytes
			b.Votes = append(b.Votes, WorkerVote{
				Worker:   d.Str(maxSnapshotWorkerLen),
				Weight:   d.Float64(),
				Positive: d.Flag(),
			})
		}
		soft.Beliefs = append(soft.Beliefs, b)
	}
	return soft
}
