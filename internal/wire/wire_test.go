package wire

import (
	"encoding/binary"
	"errors"
	"math"
	"testing"
)

var errTest = errors.New("test sentinel")

func TestRoundTrip(t *testing.T) {
	var b []byte
	b = append(b, 7)
	b = AppendFlag(b, true)
	b = binary.AppendUvarint(b, 300)
	b = binary.AppendVarint(b, -5)
	b = AppendFloat64(b, 2.5)
	b = AppendString(b, "ann")
	b = binary.AppendUvarint(b, 2) // a count of two one-byte items
	b = append(b, 1, 2)

	d := NewDec(b, errTest)
	if v := d.Byte(); v != 7 {
		t.Errorf("Byte = %d", v)
	}
	if !d.Flag() {
		t.Error("Flag = false")
	}
	if v := d.Uvarint(300); v != 300 {
		t.Errorf("Uvarint = %d", v)
	}
	if v := d.Varint(-5, 5); v != -5 {
		t.Errorf("Varint = %d", v)
	}
	if v := d.Float64(); v != 2.5 {
		t.Errorf("Float64 = %v", v)
	}
	if v := d.Str(3); v != "ann" {
		t.Errorf("Str = %q", v)
	}
	if n := d.Count(1); n != 2 || d.Byte() != 1 || d.Byte() != 2 {
		t.Errorf("Count = %d", n)
	}
	if err := d.Finish(); err != nil {
		t.Fatal(err)
	}
}

// TestRejects: every bound fails with the caller's sentinel, and the first
// failure sticks.
func TestRejects(t *testing.T) {
	for _, tc := range []struct {
		name string
		in   []byte
		read func(d *Dec)
	}{
		{"truncated byte", nil, func(d *Dec) { d.Byte() }},
		{"flag byte 2", []byte{2}, func(d *Dec) { d.Flag() }},
		{"uvarint above max", []byte{2}, func(d *Dec) { d.Uvarint(1) }},
		{"varint below lo", binary.AppendVarint(nil, -1), func(d *Dec) { d.Varint(0, 1) }},
		{"truncated float", []byte{1, 2, 3}, func(d *Dec) { d.Float64() }},
		{"string above max", AppendString(nil, "ab"), func(d *Dec) { d.Str(1) }},
		{"count above bytes", []byte{5, 0}, func(d *Dec) { d.Count(1) }},
		{"trailing bytes", []byte{1, 2}, func(d *Dec) { d.Byte() }},
	} {
		d := NewDec(tc.in, errTest)
		tc.read(&d)
		if err := d.Finish(); !errors.Is(err, errTest) {
			t.Errorf("%s: %v, want the sentinel", tc.name, err)
		}
		if d.Uvarint(math.MaxUint64) != 0 || d.Str(8) != "" {
			t.Errorf("%s: a read after the failure returned data", tc.name)
		}
	}
}
