// Package wire is the one binary primitive set behind the repo's three
// artifact codecs (sim checkpoints, vcd writer states, inject golden
// artifacts): little-endian fixed-width integers, canonical uvarints,
// length-prefixed strings and blobs, and four-state logic values.
//
// Writer appends to memory and cannot fail. Reader walks a byte slice,
// latches its first error, and is strict enough that whatever it accepts
// re-encodes to the same bytes: varints must be minimal, bools 0 or 1,
// logic values within range — and every count that sizes an allocation is
// bounded by the bytes that remain, so a hostile length prefix costs the
// decoder nothing beyond the input it already holds.
package wire

import (
	"encoding/binary"
	"fmt"
	"math"

	"repro/internal/logic"
)

// Writer accumulates an encoding in memory.
type Writer struct {
	buf []byte
}

// Bytes returns the encoding so far.
func (w *Writer) Bytes() []byte { return w.buf }

// Byte appends one raw byte.
func (w *Writer) Byte(b byte) { w.buf = append(w.buf, b) }

// Bool appends b as a 0/1 byte.
func (w *Writer) Bool(b bool) {
	if b {
		w.Byte(1)
	} else {
		w.Byte(0)
	}
}

// U32 appends a fixed-width little-endian uint32.
func (w *Writer) U32(v uint32) { w.buf = binary.LittleEndian.AppendUint32(w.buf, v) }

// U64 appends a fixed-width little-endian uint64.
func (w *Writer) U64(v uint64) { w.buf = binary.LittleEndian.AppendUint64(w.buf, v) }

// Uvarint appends v in the minimal base-128 encoding.
func (w *Writer) Uvarint(v uint64) { w.buf = binary.AppendUvarint(w.buf, v) }

// Int appends a non-negative count or index as a uvarint.
func (w *Writer) Int(n int) { w.Uvarint(uint64(n)) }

// String appends a length-prefixed string.
func (w *Writer) String(s string) {
	w.Int(len(s))
	w.buf = append(w.buf, s...)
}

// Blob appends a length-prefixed byte slice.
func (w *Writer) Blob(b []byte) {
	w.Int(len(b))
	w.buf = append(w.buf, b...)
}

// Values appends a logic-value plane, one byte per value, with no length
// prefix: the reader is told the length.
func (w *Writer) Values(v []logic.V) {
	for _, x := range v {
		w.buf = append(w.buf, byte(x))
	}
}

// Bools appends a flag plane, one 0/1 byte per flag, with no length prefix.
func (w *Writer) Bools(v []bool) {
	for _, x := range v {
		w.Bool(x)
	}
}

// Reader decodes what Writer wrote. After the first failure every read
// returns a zero value and Err reports that failure, so callers check
// once per group of reads instead of once per field.
type Reader struct {
	what string
	buf  []byte
	off  int
	err  error
}

// NewReader returns a Reader over b; what names the artifact in errors
// ("sim: checkpoint blob").
func NewReader(what string, b []byte) *Reader {
	return &Reader{what: what, buf: b}
}

// Err returns the first error the reader latched, or nil.
func (r *Reader) Err() error { return r.err }

// Fail latches a validation error found by the caller; a no-op when an
// earlier error is already latched.
func (r *Reader) Fail(format string, args ...any) {
	if r.err == nil {
		r.err = fmt.Errorf(r.what+": "+format, args...)
	}
}

// remaining reports how many bytes are left to read.
func (r *Reader) remaining() int { return len(r.buf) - r.off }

// Done returns the latched error, or an error when input remains: an
// artifact is exactly one encoding, never a prefix of the blob.
func (r *Reader) Done() error {
	if r.err == nil && r.off != len(r.buf) {
		r.Fail("%d trailing bytes", len(r.buf)-r.off)
	}
	return r.err
}

// take consumes the next n bytes, or latches a truncation error.
func (r *Reader) take(n int) []byte {
	if r.err != nil {
		return nil
	}
	if n > r.remaining() {
		r.Fail("truncated: need %d bytes, %d remain", n, r.remaining())
		return nil
	}
	b := r.buf[r.off : r.off+n]
	r.off += n
	return b
}

// Byte reads one raw byte.
func (r *Reader) Byte() byte {
	if b := r.take(1); b != nil {
		return b[0]
	}
	return 0
}

// Bool reads a byte that must be 0 or 1.
func (r *Reader) Bool() bool {
	b := r.Byte()
	if b > 1 {
		r.Fail("invalid bool byte %d", b)
	}
	return b == 1
}

// U32 reads a fixed-width little-endian uint32.
func (r *Reader) U32() uint32 {
	if b := r.take(4); b != nil {
		return binary.LittleEndian.Uint32(b)
	}
	return 0
}

// U64 reads a fixed-width little-endian uint64.
func (r *Reader) U64() uint64 {
	if b := r.take(8); b != nil {
		return binary.LittleEndian.Uint64(b)
	}
	return 0
}

// Uvarint reads a uvarint, rejecting a truncated, overlong or non-minimal
// encoding.
func (r *Reader) Uvarint() uint64 {
	if r.err != nil {
		return 0
	}
	v, n := binary.Uvarint(r.buf[r.off:])
	if n <= 0 {
		r.Fail("truncated or overlong varint")
		return 0
	}
	if n > 1 && r.buf[r.off+n-1] == 0 {
		r.Fail("non-minimal varint")
		return 0
	}
	r.off += n
	return v
}

// Int reads a uvarint that is a plain number or index rather than a
// length — a cycle, a net ID, a byte offset — bounded only so it fits an
// int on every platform. Anything that sizes an allocation goes through
// Count instead.
func (r *Reader) Int() int {
	v := r.Uvarint()
	if v > math.MaxInt32 {
		r.Fail("integer %d out of range", v)
		return 0
	}
	return int(v)
}

// Count reads the number of elements that follow, each of which encodes
// to at least elemBytes (>= 1) bytes. More elements than the remaining
// input can hold is corrupt; refusing the count here is what keeps a
// decoder's allocations proportional to the blob it was handed.
func (r *Reader) Count(elemBytes int) int {
	v := r.Uvarint()
	if r.err == nil && v > uint64(r.remaining()/elemBytes) {
		r.Fail("count %d exceeds what the %d bytes that remain can hold", v, r.remaining())
		return 0
	}
	return int(v)
}

// String reads a length-prefixed string.
func (r *Reader) String() string { return string(r.take(r.Count(1))) }

// Blob reads a length-prefixed byte slice, aliasing the input.
func (r *Reader) Blob() []byte { return r.take(r.Count(1)) }

// Value reads one logic value, rejecting bytes outside the four states.
func (r *Reader) Value() logic.V {
	b := r.Byte()
	if logic.V(b) > logic.Z {
		r.Fail("invalid logic value %d", b)
		return 0
	}
	return logic.V(b)
}

// Values reads a plane of n logic values; nothing is allocated unless the
// input holds all n.
func (r *Reader) Values(n int) []logic.V {
	raw := r.take(n)
	if raw == nil {
		return nil
	}
	out := make([]logic.V, n)
	for i, b := range raw {
		if logic.V(b) > logic.Z {
			r.Fail("invalid logic value %d", b)
			return nil
		}
		out[i] = logic.V(b)
	}
	return out
}

// Bools reads a plane of n 0/1 flags; nothing is allocated unless the
// input holds all n.
func (r *Reader) Bools(n int) []bool {
	raw := r.take(n)
	if raw == nil {
		return nil
	}
	out := make([]bool, n)
	for i, b := range raw {
		if b > 1 {
			r.Fail("invalid bool byte %d", b)
			return nil
		}
		out[i] = b == 1
	}
	return out
}
