// Package logic provides the four-state logic value system used throughout
// the gate-level simulator: 0, 1, X (unknown) and Z (high impedance).
// It mirrors the value semantics of IEEE Std 1364 (Verilog) scalar nets.
package logic

import "strings"

// V is a single four-state logic value.
type V uint8

// The four scalar logic states.
const (
	L0 V = iota // logic zero
	L1          // logic one
	X           // unknown
	Z           // high impedance
)

// String returns the Verilog literal for v.
func (v V) String() string {
	switch v {
	case L0:
		return "0"
	case L1:
		return "1"
	case X:
		return "x"
	case Z:
		return "z"
	}
	return "?"
}

// Rune returns the single-character VCD representation of v.
func (v V) Rune() byte {
	switch v {
	case L0:
		return '0'
	case L1:
		return '1'
	case X:
		return 'x'
	default:
		return 'z'
	}
}

// FromRune parses a single Verilog value character (case-insensitive).
// Unknown characters map to X.
func FromRune(r byte) V {
	switch r {
	case '0':
		return L0
	case '1':
		return L1
	case 'z', 'Z':
		return Z
	default:
		return X
	}
}

// FromBool converts a Go bool to a logic value.
func FromBool(b bool) V {
	if b {
		return L1
	}
	return L0
}

// Bool reports whether v is logic one. X and Z are false.
func (v V) Bool() bool { return v == L1 }

// IsKnown reports whether v is 0 or 1.
func (v V) IsKnown() bool { return v == L0 || v == L1 }

// Not returns the logical negation. X and Z invert to X, as in Verilog.
func (v V) Not() V {
	switch v {
	case L0:
		return L1
	case L1:
		return L0
	}
	return X
}

// And returns Verilog &: 0 dominates, X/Z otherwise poison.
func And(a, b V) V {
	if a == L0 || b == L0 {
		return L0
	}
	if a == L1 && b == L1 {
		return L1
	}
	return X
}

// Or returns Verilog |: 1 dominates.
func Or(a, b V) V {
	if a == L1 || b == L1 {
		return L1
	}
	if a == L0 && b == L0 {
		return L0
	}
	return X
}

// Xor returns Verilog ^. Any unknown operand yields X.
func Xor(a, b V) V {
	if !a.IsKnown() || !b.IsKnown() {
		return X
	}
	if a != b {
		return L1
	}
	return L0
}

// Mux returns d0 when sel is 0, d1 when sel is 1. An unknown select yields
// the data value if both inputs agree and are known, else X (standard
// pessimistic MUX semantics).
func Mux(sel, d0, d1 V) V {
	switch sel {
	case L0:
		return d0
	case L1:
		return d1
	}
	if d0 == d1 && d0.IsKnown() {
		return d0
	}
	return X
}

// Resolve merges two drivers on one net, per the Verilog wire resolution
// table: Z yields to the other driver; conflicting strong drivers give X.
func Resolve(a, b V) V {
	if a == Z {
		return b
	}
	if b == Z {
		return a
	}
	if a == b {
		return a
	}
	return X
}

// Vec is a fixed-width bus of four-state values, index 0 = LSB.
type Vec []V

// NewVec returns a width-w vector initialized to X.
func NewVec(w int) Vec {
	v := make(Vec, w)
	for i := range v {
		v[i] = X
	}
	return v
}

// VecFromUint builds a width-w vector holding the low w bits of u.
func VecFromUint(u uint64, w int) Vec {
	v := make(Vec, w)
	for i := 0; i < w; i++ {
		v[i] = FromBool(u>>uint(i)&1 == 1)
	}
	return v
}

// Uint converts v to a uint64, treating X/Z bits as zero. The second result
// reports whether all bits were known.
func (v Vec) Uint() (uint64, bool) {
	var u uint64
	known := true
	for i, b := range v {
		if !b.IsKnown() {
			known = false
			continue
		}
		if b == L1 && i < 64 {
			u |= 1 << uint(i)
		}
	}
	return u, known
}

// String renders v MSB-first as a Verilog-style bit string.
func (v Vec) String() string {
	var sb strings.Builder
	for i := len(v) - 1; i >= 0; i-- {
		sb.WriteByte(v[i].Rune())
	}
	return sb.String()
}

// ParseVec parses an MSB-first bit string such as "10xz" into a vector.
func ParseVec(s string) Vec {
	v := make(Vec, len(s))
	for i := 0; i < len(s); i++ {
		v[len(s)-1-i] = FromRune(s[i])
	}
	return v
}

// Equal reports exact four-state equality of two vectors.
func (v Vec) Equal(o Vec) bool {
	if len(v) != len(o) {
		return false
	}
	for i := range v {
		if v[i] != o[i] {
			return false
		}
	}
	return true
}

// Clone returns an independent copy of v.
func (v Vec) Clone() Vec {
	c := make(Vec, len(v))
	copy(c, v)
	return c
}
