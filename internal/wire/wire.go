// Package wire is the bounded binary codec every store record shares. Dec
// is a decode cursor: each read is bounds-checked, the first failure
// sticks, and every error wraps the sentinel of the format being read, so
// corrupt input of any shape degrades to that sentinel, never a panic or
// a huge allocation. The Append helpers, with binary.AppendUvarint and
// binary.AppendVarint, write the encodings Dec reads; they only append,
// so an encoder that reuses its buffer allocates nothing.
//
// Integers are varints (encoding/binary), floats are 8-byte big-endian
// IEEE-754, flags are one byte 0 or 1, and strings are a uvarint length
// followed by the bytes.
package wire

import (
	"encoding/binary"
	"fmt"
	"math"
)

// Dec reads a record front to back. After the first failure every read
// returns the zero value and Err reports that failure.
type Dec struct {
	b   []byte
	bad error
	err error
}

// NewDec returns a cursor over b whose errors wrap bad.
func NewDec(b []byte, bad error) Dec { return Dec{b: b, bad: bad} }

// Err reports the first failure, or nil.
func (d *Dec) Err() error { return d.err }

// Len reports how many bytes are left.
func (d *Dec) Len() int { return len(d.b) }

// Failf records a failure (unless one is recorded already), wrapping the
// cursor's sentinel. Callers use it for checks the reads cannot make.
func (d *Dec) Failf(format string, args ...any) {
	if d.err == nil {
		d.err = fmt.Errorf("%w: %s", d.bad, fmt.Sprintf(format, args...))
	}
}

// take consumes n bytes; it returns nil once d has failed.
func (d *Dec) take(n uint64) []byte {
	if d.err != nil {
		return nil
	}
	if uint64(len(d.b)) < n {
		d.Failf("truncated")
		return nil
	}
	v := d.b[:n]
	d.b = d.b[n:]
	return v
}

// Byte reads one byte.
func (d *Dec) Byte() byte {
	if v := d.take(1); v != nil {
		return v[0]
	}
	return 0
}

// Flag reads one byte that must be 0 or 1.
func (d *Dec) Flag() bool {
	v := d.Byte()
	if v > 1 {
		d.Failf("flag byte %d", v)
	}
	return v == 1
}

// Uvarint reads an unsigned varint no greater than max.
func (d *Dec) Uvarint(max uint64) uint64 {
	if d.err != nil {
		return 0
	}
	v, n := binary.Uvarint(d.b)
	if n <= 0 || v > max {
		d.Failf("bad uvarint or %d above %d", v, max)
		return 0
	}
	d.b = d.b[n:]
	return v
}

// Varint reads a signed varint in [lo, hi].
func (d *Dec) Varint(lo, hi int64) int64 {
	if d.err != nil {
		return 0
	}
	v, n := binary.Varint(d.b)
	if n <= 0 || v < lo || v > hi {
		d.Failf("bad varint or %d outside [%d, %d]", v, lo, hi)
		return 0
	}
	d.b = d.b[n:]
	return v
}

// Float64 reads an 8-byte big-endian IEEE-754 value.
func (d *Dec) Float64() float64 {
	if v := d.take(8); v != nil {
		return math.Float64frombits(binary.BigEndian.Uint64(v))
	}
	return 0
}

// Str reads a length-prefixed string of at most max bytes.
func (d *Dec) Str(max int) string { return string(d.take(d.Uvarint(uint64(max)))) }

// Count reads an item count. Each item takes at least minSize bytes, so a
// count the bytes left cannot hold is corrupt, and a caller may allocate
// the count without trusting the input.
func (d *Dec) Count(minSize int) int {
	return int(d.Uvarint(uint64(len(d.b) / minSize)))
}

// Finish reports the first failure, or a failure if bytes are left over.
func (d *Dec) Finish() error {
	if d.err == nil && len(d.b) != 0 {
		d.Failf("%d trailing bytes", len(d.b))
	}
	return d.err
}

// AppendFlag appends v as one byte, 0 or 1.
func AppendFlag(b []byte, v bool) []byte {
	if v {
		return append(b, 1)
	}
	return append(b, 0)
}

// AppendFloat64 appends v as 8 big-endian IEEE-754 bytes.
func AppendFloat64(b []byte, v float64) []byte {
	return binary.BigEndian.AppendUint64(b, math.Float64bits(v))
}

// AppendString appends s with its uvarint length prefix.
func AppendString(b []byte, s string) []byte {
	return append(binary.AppendUvarint(b, uint64(len(s))), s...)
}
