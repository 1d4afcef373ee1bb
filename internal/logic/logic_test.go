package logic

import (
	"testing"
	"testing/quick"
)

func TestNotTable(t *testing.T) {
	cases := map[V]V{L0: L1, L1: L0, X: X, Z: X}
	for in, want := range cases {
		if got := in.Not(); got != want {
			t.Errorf("Not(%v) = %v, want %v", in, got, want)
		}
	}
}

func TestAndTable(t *testing.T) {
	cases := []struct{ a, b, want V }{
		{L0, L0, L0}, {L0, L1, L0}, {L1, L0, L0}, {L1, L1, L1},
		{L0, X, L0}, {X, L0, L0}, {L1, X, X}, {X, L1, X},
		{X, X, X}, {Z, L1, X}, {L0, Z, L0}, {Z, Z, X},
	}
	for _, c := range cases {
		if got := And(c.a, c.b); got != c.want {
			t.Errorf("And(%v,%v) = %v, want %v", c.a, c.b, got, c.want)
		}
	}
}

func TestOrTable(t *testing.T) {
	cases := []struct{ a, b, want V }{
		{L0, L0, L0}, {L0, L1, L1}, {L1, L0, L1}, {L1, L1, L1},
		{L1, X, L1}, {X, L1, L1}, {L0, X, X}, {X, X, X}, {Z, L0, X},
	}
	for _, c := range cases {
		if got := Or(c.a, c.b); got != c.want {
			t.Errorf("Or(%v,%v) = %v, want %v", c.a, c.b, got, c.want)
		}
	}
}

func TestXorTable(t *testing.T) {
	cases := []struct{ a, b, want V }{
		{L0, L0, L0}, {L0, L1, L1}, {L1, L0, L1}, {L1, L1, L0},
		{X, L0, X}, {L1, Z, X},
	}
	for _, c := range cases {
		if got := Xor(c.a, c.b); got != c.want {
			t.Errorf("Xor(%v,%v) = %v, want %v", c.a, c.b, got, c.want)
		}
	}
}

func TestMux(t *testing.T) {
	if got := Mux(L0, L1, L0); got != L1 {
		t.Errorf("Mux(sel=0) = %v, want 1", got)
	}
	if got := Mux(L1, L1, L0); got != L0 {
		t.Errorf("Mux(sel=1) = %v, want 0", got)
	}
	if got := Mux(X, L1, L1); got != L1 {
		t.Errorf("Mux(sel=X, equal data) = %v, want 1", got)
	}
	if got := Mux(X, L1, L0); got != X {
		t.Errorf("Mux(sel=X, differing data) = %v, want X", got)
	}
}

func TestResolve(t *testing.T) {
	cases := []struct{ a, b, want V }{
		{Z, L1, L1}, {L0, Z, L0}, {Z, Z, Z},
		{L0, L1, X}, {L1, L1, L1}, {X, L0, X},
	}
	for _, c := range cases {
		if got := Resolve(c.a, c.b); got != c.want {
			t.Errorf("Resolve(%v,%v) = %v, want %v", c.a, c.b, got, c.want)
		}
	}
}

func TestRuneRoundTrip(t *testing.T) {
	for _, v := range []V{L0, L1, X, Z} {
		if got := FromRune(v.Rune()); got != v {
			t.Errorf("FromRune(Rune(%v)) = %v", v, got)
		}
	}
	if FromRune('q') != X {
		t.Errorf("unknown rune should parse to X")
	}
}

func TestVecUintRoundTrip(t *testing.T) {
	f := func(u uint64) bool {
		u &= (1 << 32) - 1
		v := VecFromUint(u, 32)
		got, known := v.Uint()
		return known && got == u
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestVecStringParse(t *testing.T) {
	s := "10xz01"
	v := ParseVec(s)
	if v.String() != s {
		t.Errorf("round trip %q -> %q", s, v.String())
	}
	if len(v) != 6 {
		t.Errorf("len = %d, want 6", len(v))
	}
	if v[0] != L1 || v[5] != L1 {
		t.Errorf("bit order wrong: lsb=%v msb=%v", v[0], v[5])
	}
}

func TestVecUnknownBits(t *testing.T) {
	v := ParseVec("1x0")
	u, known := v.Uint()
	if known {
		t.Errorf("vector with X should not be fully known")
	}
	if u != 4 {
		t.Errorf("Uint with X-as-0 = %d, want 4", u)
	}
}

func TestVecEqualClone(t *testing.T) {
	v := ParseVec("1010")
	c := v.Clone()
	if !v.Equal(c) {
		t.Fatal("clone should equal original")
	}
	c[0] = X
	if v.Equal(c) {
		t.Fatal("mutating clone must not affect original")
	}
	if v[0] == X {
		t.Fatal("clone aliases original storage")
	}
}

func TestDeMorganProperty(t *testing.T) {
	vals := []V{L0, L1, X, Z}
	for _, a := range vals {
		for _, b := range vals {
			left := And(a, b).Not()
			right := Or(a.Not(), b.Not())
			if left != right {
				t.Errorf("De Morgan violated for %v,%v: %v != %v", a, b, left, right)
			}
		}
	}
}

func TestAndOrCommutative(t *testing.T) {
	vals := []V{L0, L1, X, Z}
	for _, a := range vals {
		for _, b := range vals {
			if And(a, b) != And(b, a) {
				t.Errorf("And not commutative for %v,%v", a, b)
			}
			if Or(a, b) != Or(b, a) {
				t.Errorf("Or not commutative for %v,%v", a, b)
			}
			if Xor(a, b) != Xor(b, a) {
				t.Errorf("Xor not commutative for %v,%v", a, b)
			}
		}
	}
}

func TestResolveCommutativeAssociativeWithZ(t *testing.T) {
	vals := []V{L0, L1, X, Z}
	for _, a := range vals {
		for _, b := range vals {
			if Resolve(a, b) != Resolve(b, a) {
				t.Errorf("Resolve not commutative for %v,%v", a, b)
			}
			if Resolve(a, Z) != a {
				t.Errorf("Z must be identity for Resolve, got %v for %v", Resolve(a, Z), a)
			}
		}
	}
}
