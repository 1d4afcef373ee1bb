package wire

import (
	"bytes"
	"strings"
	"testing"

	"repro/internal/logic"
)

func TestRoundTrip(t *testing.T) {
	var w Writer
	w.U32(0xdeadbeef)
	w.Byte(7)
	w.Bool(true)
	w.U64(1 << 40)
	w.Uvarint(300)
	w.Int(0)
	w.String("design")
	w.Blob([]byte{1, 2, 3})
	w.Int(3)
	w.Values([]logic.V{logic.L0, logic.X, logic.Z})
	w.Bools([]bool{true, false})

	r := NewReader("test blob", w.Bytes())
	if v := r.U32(); v != 0xdeadbeef {
		t.Errorf("U32 = %#x", v)
	}
	if v := r.Byte(); v != 7 {
		t.Errorf("Byte = %d", v)
	}
	if !r.Bool() {
		t.Error("Bool = false")
	}
	if v := r.U64(); v != 1<<40 {
		t.Errorf("U64 = %d", v)
	}
	if v := r.Uvarint(); v != 300 {
		t.Errorf("Uvarint = %d", v)
	}
	if v := r.Int(); v != 0 {
		t.Errorf("Int = %d", v)
	}
	if v := r.String(); v != "design" {
		t.Errorf("String = %q", v)
	}
	if v := r.Blob(); !bytes.Equal(v, []byte{1, 2, 3}) {
		t.Errorf("Blob = %v", v)
	}
	if v := r.Values(r.Count(1)); len(v) != 3 || v[1] != logic.X || v[2] != logic.Z {
		t.Errorf("Values = %v", v)
	}
	if v := r.Bools(2); len(v) != 2 || !v[0] || v[1] {
		t.Errorf("Bools = %v", v)
	}
	if err := r.Done(); err != nil {
		t.Fatal(err)
	}
}

// TestReaderRefuses pins every strictness rule the three codecs lean on:
// each input is one the standard library's lenient readers would accept
// or over-allocate for.
func TestReaderRefuses(t *testing.T) {
	for _, tc := range []struct {
		name string
		in   []byte
		read func(*Reader)
		want string
	}{
		{"truncated fixed", []byte{1, 2, 3}, func(r *Reader) { r.U32() }, "truncated"},
		{"truncated varint", []byte{0x80}, func(r *Reader) { r.Uvarint() }, "varint"},
		{"non-minimal varint", []byte{0x80, 0x00}, func(r *Reader) { r.Uvarint() }, "non-minimal"},
		{"overlong varint", bytes.Repeat([]byte{0xff}, 11), func(r *Reader) { r.Uvarint() }, "varint"},
		{"bool byte 2", []byte{2}, func(r *Reader) { r.Bool() }, "bool"},
		{"logic value 4", []byte{4}, func(r *Reader) { r.Value() }, "logic value"},
		{"logic plane holding 9", []byte{0, 9}, func(r *Reader) { r.Values(2) }, "logic value"},
		{"int beyond int32", []byte{0xff, 0xff, 0xff, 0xff, 0x0f}, func(r *Reader) { r.Int() }, "out of range"},
		{"count beyond input", []byte{5, 1, 2}, func(r *Reader) { r.Count(1) }, "count 5 exceeds"},
		{"count beyond input at element size", []byte{2, 1, 2, 3, 4, 5, 6, 7}, func(r *Reader) { r.Count(4) }, "count 2 exceeds"},
		{"string longer than input", []byte{4, 'a', 'b'}, func(r *Reader) { _ = r.String() }, "count 4 exceeds"},
		{"trailing bytes", []byte{1, 0}, func(r *Reader) { r.Byte() }, "trailing"},
	} {
		r := NewReader("test blob", tc.in)
		tc.read(r)
		err := r.Done()
		if err == nil || !strings.Contains(err.Error(), tc.want) || !strings.HasPrefix(err.Error(), "test blob: ") {
			t.Errorf("%s: got %v, want a %q error", tc.name, err, tc.want)
		}
	}
}

// TestReaderLatchesFirstError: after a failure every read is a no-op
// returning zero, and the first error is the one reported.
func TestReaderLatchesFirstError(t *testing.T) {
	r := NewReader("test blob", []byte{2, 1, 1})
	r.Bool()
	if r.Byte() != 0 || r.Bool() || r.remaining() != 2 {
		t.Error("reads after a failure consumed input or returned data")
	}
	r.Fail("a later complaint")
	if err := r.Err(); err == nil || !strings.Contains(err.Error(), "bool") {
		t.Errorf("latched error = %v, want the first (bool) failure", err)
	}
}
