package vcd

import (
	"bytes"
	"io"
	"strings"
	"testing"

	"repro/internal/logic"
)

func vec(s string) logic.Vec { return logic.ParseVec(s) }

func writeSimpleTrace(t *testing.T, changes func(w *Writer)) *Trace {
	t.Helper()
	var buf bytes.Buffer
	w := NewWriter(&buf)
	if err := w.Declare("clk", 1); err != nil {
		t.Fatal(err)
	}
	if err := w.Declare("data", 4); err != nil {
		t.Fatal(err)
	}
	if err := w.WriteHeader("testdut"); err != nil {
		t.Fatal(err)
	}
	changes(w)
	if err := w.Close(1000); err != nil {
		t.Fatal(err)
	}
	tr, err := Parse(&buf)
	if err != nil {
		t.Fatalf("parse back: %v\n", err)
	}
	return tr
}

func TestIDCodeUnique(t *testing.T) {
	seen := map[string]bool{}
	for i := 0; i < 20000; i++ {
		c := idCode(i)
		if seen[c] {
			t.Fatalf("idCode collision at %d: %q", i, c)
		}
		seen[c] = true
		for _, r := range c {
			if r < 33 || r > 126 {
				t.Fatalf("idCode %d emitted non-printable %q", i, c)
			}
		}
	}
}

func TestRoundTripScalarAndVector(t *testing.T) {
	tr := writeSimpleTrace(t, func(w *Writer) {
		_ = w.Change(10, "clk", vec("1"))
		_ = w.Change(10, "data", vec("1010"))
		_ = w.Change(20, "clk", vec("0"))
		_ = w.Change(30, "data", vec("1111"))
	})
	clk := tr.Signals["clk"]
	if clk == nil {
		t.Fatal("clk missing from parsed trace")
	}
	if got := clk.At(15); !got.Equal(vec("1")) {
		t.Errorf("clk@15 = %s", got)
	}
	if got := clk.At(25); !got.Equal(vec("0")) {
		t.Errorf("clk@25 = %s", got)
	}
	data := tr.Signals["data"]
	if got := data.At(12); !got.Equal(vec("1010")) {
		t.Errorf("data@12 = %s", got)
	}
	if got := data.At(999); !got.Equal(vec("1111")) {
		t.Errorf("data@999 = %s", got)
	}
	if tr.EndTime != 1000 {
		t.Errorf("EndTime = %d, want 1000", tr.EndTime)
	}
}

func TestInitialValueIsX(t *testing.T) {
	tr := writeSimpleTrace(t, func(w *Writer) {
		_ = w.Change(50, "clk", vec("1"))
	})
	if got := tr.Signals["clk"].At(0); !got.Equal(vec("x")) {
		t.Errorf("initial clk = %s, want x", got)
	}
	if got := tr.Signals["data"].At(40); !got.Equal(vec("xxxx")) {
		t.Errorf("data before any change = %s, want xxxx", got)
	}
}

func TestRedundantChangesSuppressed(t *testing.T) {
	var buf bytes.Buffer
	w := NewWriter(&buf)
	_ = w.Declare("s", 1)
	_ = w.WriteHeader("d")
	_ = w.Change(10, "s", vec("1"))
	_ = w.Change(20, "s", vec("1"))
	_ = w.Change(30, "s", vec("0"))
	_ = w.Close(100)
	text := buf.String()
	if strings.Contains(text, "#20") {
		t.Errorf("redundant change emitted timestamp #20:\n%s", text)
	}
	if !strings.Contains(text, "#10") || !strings.Contains(text, "#30") {
		t.Errorf("real changes missing:\n%s", text)
	}
}

func TestWriterErrors(t *testing.T) {
	var buf bytes.Buffer
	w := NewWriter(&buf)
	if err := w.Declare("a", 0); err == nil {
		t.Error("zero width must be rejected")
	}
	_ = w.Declare("a", 1)
	if err := w.Declare("a", 1); err == nil {
		t.Error("duplicate signal must be rejected")
	}
	if err := w.Change(0, "a", vec("1")); err == nil {
		t.Error("Change before header must fail")
	}
	_ = w.WriteHeader("d")
	if err := w.Declare("b", 1); err == nil {
		t.Error("Declare after header must fail")
	}
	if err := w.Change(0, "ghost", vec("1")); err == nil {
		t.Error("Change on undeclared signal must fail")
	}
	if err := w.Change(0, "a", vec("11")); err == nil {
		t.Error("width mismatch must fail")
	}
	_ = w.Change(50, "a", vec("1"))
	if err := w.Change(40, "a", vec("0")); err == nil {
		t.Error("time reversal must fail")
	}
}

func TestCompareIdentical(t *testing.T) {
	mk := func() *Trace {
		return writeSimpleTrace(t, func(w *Writer) {
			_ = w.Change(10, "clk", vec("1"))
			_ = w.Change(20, "clk", vec("0"))
			_ = w.Change(20, "data", vec("0110"))
		})
	}
	a, b := mk(), mk()
	if Diverged(a, b, nil) {
		t.Fatalf("identical traces diverged: %v", Compare(a, b, nil))
	}
}

func TestCompareValueMismatch(t *testing.T) {
	golden := writeSimpleTrace(t, func(w *Writer) {
		_ = w.Change(10, "data", vec("0001"))
		_ = w.Change(50, "data", vec("0010"))
	})
	faulty := writeSimpleTrace(t, func(w *Writer) {
		_ = w.Change(10, "data", vec("0001"))
		_ = w.Change(50, "data", vec("1010"))
	})
	ms := Compare(golden, faulty, []string{"data"})
	if len(ms) == 0 {
		t.Fatal("divergence not detected")
	}
	if ms[0].Time != 50 || ms[0].Signal != "data" {
		t.Errorf("first mismatch = %v", ms[0])
	}
}

func TestCompareTimingMismatch(t *testing.T) {
	golden := writeSimpleTrace(t, func(w *Writer) {
		_ = w.Change(10, "clk", vec("1"))
	})
	faulty := writeSimpleTrace(t, func(w *Writer) {
		_ = w.Change(30, "clk", vec("1"))
	})
	ms := Compare(golden, faulty, []string{"clk"})
	if len(ms) == 0 {
		t.Fatal("timing divergence not detected")
	}
	if ms[0].Time != 10 {
		t.Errorf("divergence should appear at 10, got %d", ms[0].Time)
	}
}

func TestCompareSubsetOfSignals(t *testing.T) {
	golden := writeSimpleTrace(t, func(w *Writer) {
		_ = w.Change(10, "clk", vec("1"))
		_ = w.Change(10, "data", vec("0000"))
	})
	faulty := writeSimpleTrace(t, func(w *Writer) {
		_ = w.Change(10, "clk", vec("0")) // differs
		_ = w.Change(10, "data", vec("0000"))
	})
	if Diverged(golden, faulty, []string{"data"}) {
		t.Error("data-only comparison must ignore clk")
	}
	if !Diverged(golden, faulty, []string{"clk"}) {
		t.Error("clk divergence missed")
	}
}

// leadingZeroDump changes an 8-bit bus with a vector that drops its
// leading zeros.
const leadingZeroDump = `$timescale 1ps $end
$scope module top $end
$var wire 8 ! bus $end
$upscope $end
$enddefinitions $end
#5
b101 !
`

// malformedDumps are inputs Parse must refuse.
var malformedDumps = []string{
	"$var wire $end\n$enddefinitions $end\n",
	"$enddefinitions $end\n#abc\n",
	"$enddefinitions $end\n1?\n",
	"$enddefinitions $end\nb101\n",
	"$enddefinitions $end\nqqq\n",
}

func TestParseLeadingZeroExtension(t *testing.T) {
	tr, err := Parse(strings.NewReader(leadingZeroDump))
	if err != nil {
		t.Fatal(err)
	}
	got := tr.Signals["bus"].At(5)
	if len(got) != 8 {
		t.Fatalf("width = %d, want 8", len(got))
	}
	if !got.Equal(vec("00000101")) {
		t.Errorf("bus@5 = %s", got)
	}
}

func TestParseErrors(t *testing.T) {
	for _, src := range malformedDumps {
		if _, err := Parse(strings.NewReader(src)); err == nil {
			t.Errorf("malformed VCD accepted: %q", src)
		}
	}
}

func TestSignalAtBinarySearch(t *testing.T) {
	s := &Signal{Name: "s", Width: 1}
	for i := uint64(0); i < 100; i += 10 {
		v := logic.L0
		if (i/10)%2 == 1 {
			v = logic.L1
		}
		s.Samples = append(s.Samples, Sample{Time: i, Val: logic.Vec{v}})
	}
	for i := uint64(0); i < 100; i++ {
		want := logic.L0
		if (i/10)%2 == 1 {
			want = logic.L1
		}
		if got := s.At(i); got[0] != want {
			t.Fatalf("At(%d) = %v, want %v", i, got[0], want)
		}
	}
}

// TestChangeAndParseAllocateNothingPerChange: once a writer's signals
// have a last value, Change allocates nothing, whatever it writes; and
// Parse allocates as much for a dump of many changes as for one of few.
func TestChangeAndParseAllocateNothingPerChange(t *testing.T) {
	dump := func(changes int) []byte {
		var buf bytes.Buffer
		w := NewWriter(&buf)
		_ = w.Declare("s", 1)
		_ = w.Declare("bus", 4)
		_ = w.WriteHeader("d")
		for i := range changes {
			_ = w.Change(uint64(10*i), "s", logic.Vec{logic.V(i % 4)})
			_ = w.Change(uint64(10*i+5), "bus", logic.VecFromUint(uint64(i), 4))
		}
		_ = w.Close(uint64(10 * changes))
		return buf.Bytes()
	}

	w := NewWriter(io.Discard)
	_ = w.Declare("s", 1)
	_ = w.WriteHeader("d")
	now := uint64(0)
	if a := testing.AllocsPerRun(1000, func() {
		now++
		if err := w.Change(now, "s", logic.Vec{logic.V(now % 4)}); err != nil {
			t.Fatal(err)
		}
	}); a != 0 {
		t.Errorf("Change allocates %.1f times per change", a)
	}

	parse := func(b []byte) float64 {
		return testing.AllocsPerRun(20, func() {
			if _, err := Parse(bytes.NewBuffer(b)); err != nil {
				t.Fatal(err)
			}
		})
	}
	if few, many := parse(dump(10)), parse(dump(1000)); few != many {
		t.Errorf("Parse allocates %.0f times on 20 changes, %.0f on 2000", few, many)
	}
}
