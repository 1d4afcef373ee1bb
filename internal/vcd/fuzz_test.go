package vcd

import (
	"bytes"
	"strconv"
	"strings"
	"testing"

	"repro/internal/logic"
)

// FuzzParse hardens the parser and pins the writer to it. On any bytes
// Parse must not panic. The same bytes, read as a change sequence (see
// fuzzChanges) and driven through a Writer, must parse back to the value
// last written at every change instant; and a writer resumed midway from
// the State of one that wrote the first part must write exactly the bytes
// an uninterrupted writer writes from there.
func FuzzParse(f *testing.F) {
	f.Add([]byte(leadingZeroDump))
	for _, src := range malformedDumps {
		f.Add([]byte(src))
	}
	var dump bytes.Buffer
	vw := NewWriter(&dump)
	for i, name := range fuzzSignals {
		if err := vw.Declare(name, fuzzWidths[i]); err != nil {
			f.Fatal(err)
		}
	}
	if err := vw.WriteHeader("fuzz"); err != nil {
		f.Fatal(err)
	}
	for i, c := range fuzzChanges([]byte("\x01\x11\x05\x3c\x0a\x02\x04\x01\x19\xff")) {
		if err := vw.Change(c.t, fuzzSignals[c.sig], c.v); err != nil {
			f.Fatalf("seed change %d: %v", i, err)
		}
	}
	if err := vw.Close(1000); err != nil {
		f.Fatal(err)
	}
	f.Add(dump.Bytes())
	f.Fuzz(func(t *testing.T, data []byte) {
		if !wideDeclaration(data) {
			_, _ = Parse(bytes.NewReader(data))
		}
		checkWriterRoundTrip(t, data)
	})
}

// fuzzSignals and fuzzWidths are the signals the writer properties dump.
var (
	fuzzSignals = []string{"clk", "data", "q"}
	fuzzWidths  = []int{1, 4, 1}
)

type fuzzChange struct {
	t   uint64
	sig int
	v   logic.Vec
}

// fuzzChanges reads data two bytes a change: the first picks the signal
// and how far time advances (0 to 2 ps, so instants repeat), the second
// holds the value, two bits a position.
func fuzzChanges(data []byte) []fuzzChange {
	var out []fuzzChange
	now := uint64(1)
	for ; len(data) >= 2; data = data[2:] {
		sig := int(data[0]) % len(fuzzSignals)
		now += uint64(data[0]>>2) % 3
		v := make(logic.Vec, fuzzWidths[sig])
		for j := range v {
			v[j] = logic.V(data[1] >> (2 * j) & 3)
		}
		out = append(out, fuzzChange{now, sig, v})
	}
	return out
}

// wideDeclaration reports whether data declares a $var wider than 1<<10
// bits: a vector change left-extends to its signal's width, so such a
// declaration costs memory in proportion to it on every change, and the
// fuzzer would spend its budget allocating.
func wideDeclaration(data []byte) bool {
	for _, l := range strings.Split(string(data), "\n") {
		if f := strings.Fields(l); len(f) > 2 && strings.HasPrefix(f[0], "$var") {
			if w, err := strconv.Atoi(f[2]); err == nil && w > 1<<10 {
				return true
			}
		}
	}
	return false
}

// checkWriterRoundTrip drives data's change sequence through one writer
// and, split in two, through a writer and one resumed from its State.
func checkWriterRoundTrip(t *testing.T, data []byte) {
	changes := fuzzChanges(data)
	split := 0
	if len(data) > 0 {
		split = int(data[len(data)-1]) % (len(changes) + 1)
	}
	newWriter := func(buf *bytes.Buffer) *Writer {
		vw := NewWriter(buf)
		for i, name := range fuzzSignals {
			if err := vw.Declare(name, fuzzWidths[i]); err != nil {
				t.Fatal(err)
			}
		}
		if err := vw.WriteHeader("fuzz"); err != nil {
			t.Fatal(err)
		}
		return vw
	}
	var full, parts bytes.Buffer
	whole, first := newWriter(&full), newWriter(&parts)
	var second *Writer
	end := uint64(1)
	for i, c := range changes {
		if i == split {
			if err := first.Flush(); err != nil {
				t.Fatal(err)
			}
			second = ResumeWriter(&parts, first.State())
		}
		vw := first
		if second != nil {
			vw = second
		}
		for _, w := range []*Writer{whole, vw} {
			if err := w.Change(c.t, fuzzSignals[c.sig], c.v); err != nil {
				t.Fatalf("change %d: %v", i, err)
			}
		}
		end = c.t + 1
	}
	if second == nil {
		second = first
	}
	if err := whole.Close(end); err != nil {
		t.Fatal(err)
	}
	if err := second.Close(end); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(full.Bytes(), parts.Bytes()) {
		t.Fatalf("resumed at change %d, the dump differs:\nwhole\n%s\nresumed\n%s", split, full.Bytes(), parts.Bytes())
	}
	tr, err := Parse(&full)
	if err != nil {
		t.Fatalf("the writer's own dump does not parse: %v", err)
	}
	for i, c := range changes {
		want := c.v
		for _, d := range changes[i+1:] {
			if d.t != c.t {
				break
			}
			if d.sig == c.sig {
				want = d.v
			}
		}
		if got := tr.Signals[fuzzSignals[c.sig]].At(c.t); !got.Equal(want) {
			t.Fatalf("change %d: %s@%d parses back as %s, written %s", i, fuzzSignals[c.sig], c.t, got, want)
		}
	}
}
