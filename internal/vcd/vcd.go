// Package vcd implements the IEEE-1364 Value Change Dump format: a writer
// that the simulator dumps monitored signals into, a parser, and a trace
// comparator. The soft-error detector of the framework's VCD method is
// the injection pipeline's (inject's compareCaptured): it reads a parsed
// faulty trace and the golden one at the sampling instants. Compare, which
// reports every divergence at every change time, serves the tests.
package vcd

import (
	"bufio"
	"bytes"
	"fmt"
	"io"
	"sort"
	"strconv"
	"strings"

	"repro/internal/logic"
)

// Writer emits a VCD file incrementally. Declare all signals before the
// header; Change times must be non-decreasing. A change costs one
// name lookup and no allocation: the signals are indexed as they are
// declared, each one's last value is compared and overwritten in place,
// and the lines are appended to the buffered output without formatting.
type Writer struct {
	w        *bufio.Writer
	index    map[string]int // signal name -> declaration index
	names    []string       // by declaration index, as are ids, widths, last
	ids      []string       // VCD id codes
	widths   []int
	last     []logic.Vec // last emitted value; nil while none is known
	headerOK bool
	curTime  uint64
	timeSet  bool
	num      [20]byte // a timestamp's digits
}

// NewWriter returns a Writer targeting w with a 1ps timescale.
func NewWriter(w io.Writer) *Writer {
	return &Writer{w: bufio.NewWriter(w), index: map[string]int{}}
}

// idCode converts an index to the printable-ASCII short code VCD uses.
func idCode(n int) string {
	const lo, hi = 33, 126 // '!' .. '~'
	var sb []byte
	for {
		sb = append(sb, byte(lo+n%(hi-lo+1)))
		n /= (hi - lo + 1)
		if n == 0 {
			break
		}
		n--
	}
	return string(sb)
}

// Declare registers a signal of the given bit width before the header is
// written. Re-declaring a name is an error.
func (vw *Writer) Declare(name string, width int) error {
	if vw.headerOK {
		return fmt.Errorf("vcd: Declare after header written")
	}
	if _, dup := vw.index[name]; dup {
		return fmt.Errorf("vcd: duplicate signal %q", name)
	}
	if width < 1 {
		return fmt.Errorf("vcd: signal %q has width %d", name, width)
	}
	vw.add(name, idCode(len(vw.names)), width, nil)
	return nil
}

// add indexes one signal.
func (vw *Writer) add(name, id string, width int, last logic.Vec) {
	vw.index[name] = len(vw.names)
	vw.names = append(vw.names, name)
	vw.ids = append(vw.ids, id)
	vw.widths = append(vw.widths, width)
	vw.last = append(vw.last, last)
}

// WriteHeader emits the declaration section and the initial $dumpvars block
// with all signals at X.
func (vw *Writer) WriteHeader(design string) error {
	if vw.headerOK {
		return fmt.Errorf("vcd: header already written")
	}
	fmt.Fprintf(vw.w, "$date\n  reproducible\n$end\n")
	fmt.Fprintf(vw.w, "$version\n  repro/internal/vcd (%s)\n$end\n", design)
	fmt.Fprintf(vw.w, "$timescale 1ps $end\n")
	fmt.Fprintf(vw.w, "$scope module %s $end\n", sanitizeScope(design))
	for i, name := range vw.names {
		fmt.Fprintf(vw.w, "$var wire %d %s %s $end\n", vw.widths[i], vw.ids[i], name)
	}
	fmt.Fprintf(vw.w, "$upscope $end\n$enddefinitions $end\n$dumpvars\n")
	for i, width := range vw.widths {
		vw.last[i] = logic.NewVec(width)
		vw.emit(i, vw.last[i])
	}
	fmt.Fprintf(vw.w, "$end\n")
	vw.headerOK = true
	return nil
}

func sanitizeScope(s string) string {
	if s == "" {
		return "top"
	}
	return strings.Map(func(r rune) rune {
		if r == ' ' || r == '\t' {
			return '_'
		}
		return r
	}, s)
}

// emit writes signal i's value line: a scalar as value and id code, any
// other width as b, the bits MSB first, a space and the id code. The
// bufio.Writer keeps its first write error; Flush and Close report it.
func (vw *Writer) emit(i int, v logic.Vec) {
	if len(v) == 1 {
		vw.w.WriteByte(v[0].Rune())
	} else {
		vw.w.WriteByte('b')
		for j := len(v) - 1; j >= 0; j-- {
			vw.w.WriteByte(v[j].Rune())
		}
		vw.w.WriteByte(' ')
	}
	vw.w.WriteString(vw.ids[i])
	vw.w.WriteByte('\n')
}

// Change records a new value for a declared signal at time t (picoseconds).
// Values equal to the previous dump are suppressed, as real dumpers do.
// v is read, never kept.
func (vw *Writer) Change(t uint64, name string, v logic.Vec) error {
	if !vw.headerOK {
		return fmt.Errorf("vcd: Change before header")
	}
	i, ok := vw.index[name]
	if !ok {
		return fmt.Errorf("vcd: change on undeclared signal %q", name)
	}
	if len(v) != vw.widths[i] {
		return fmt.Errorf("vcd: signal %q width %d, change has %d bits", name, vw.widths[i], len(v))
	}
	if vw.timeSet && t < vw.curTime {
		return fmt.Errorf("vcd: time moved backwards: %d < %d", t, vw.curTime)
	}
	last := vw.last[i]
	if last != nil && last.Equal(v) {
		return nil
	}
	if !vw.timeSet || t != vw.curTime {
		vw.w.WriteByte('#')
		vw.w.Write(strconv.AppendUint(vw.num[:0], t, 10))
		vw.w.WriteByte('\n')
		vw.curTime = t
		vw.timeSet = true
	}
	vw.emit(i, v)
	if last == nil || cap(last) < len(v) {
		last = make(logic.Vec, len(v))
	}
	vw.last[i] = last[:len(v)]
	copy(vw.last[i], v)
	return nil
}

// Flush pushes buffered output to the underlying writer without
// finalizing the dump — a checkpointing caller flushes before capturing
// the byte offset a resumed tail dump will be stitched onto.
func (vw *Writer) Flush() error { return vw.w.Flush() }

// Close flushes buffered output and finalizes the dump.
func (vw *Writer) Close(endTime uint64) error {
	if vw.headerOK && (!vw.timeSet || endTime > vw.curTime) {
		fmt.Fprintf(vw.w, "#%d\n", endTime)
	}
	return vw.w.Flush()
}

// WriterState is an immutable snapshot of a Writer's dump position: the
// declared signals, the current dump time, and the last emitted value of
// every signal (the change-suppression state). It is what a checkpointing
// simulation captures alongside each engine checkpoint, so a restored run
// can resume dumping mid-trace with ResumeWriter and produce exactly the
// change records a never-interrupted dump would have produced from that
// instant on.
type WriterState struct {
	Time    uint64
	TimeSet bool
	Widths  map[string]int
	Last    map[string]logic.Vec
	order   []string
	ids     map[string]string
}

// State snapshots the writer's dump position. Safe to take at any point
// after the header is written; the snapshot shares nothing with the
// writer, so the writer may keep dumping and any number of runs may
// resume from the same state concurrently.
func (vw *Writer) State() *WriterState {
	st := &WriterState{
		Time:    vw.curTime,
		TimeSet: vw.timeSet,
		Widths:  make(map[string]int, len(vw.names)),
		Last:    make(map[string]logic.Vec, len(vw.names)),
		order:   append([]string(nil), vw.names...),
		ids:     make(map[string]string, len(vw.names)),
	}
	for i, n := range vw.names {
		st.Widths[n] = vw.widths[i]
		st.ids[n] = vw.ids[i]
		if vw.last[i] != nil {
			st.Last[n] = vw.last[i].Clone()
		}
	}
	return st
}

// ResumeWriter returns a Writer that continues a dump from a previously
// captured state: same signals and id codes, suppression seeded with the
// state's last values, no header re-emitted. Concatenating the prefix
// dump (up to the state) with everything the resumed writer emits parses
// to the same trace as one uninterrupted dump.
func ResumeWriter(w io.Writer, st *WriterState) *Writer {
	vw := NewWriter(w)
	vw.headerOK = true
	vw.curTime = st.Time
	vw.timeSet = st.TimeSet
	for _, n := range st.order {
		var last logic.Vec
		if v, ok := st.Last[n]; ok {
			last = v.Clone()
		}
		vw.add(n, st.ids[n], st.Widths[n], last)
	}
	return vw
}

// Sample is one value of a signal starting at Time.
type Sample struct {
	Time uint64
	Val  logic.Vec
}

// Signal is the full change history of one trace signal.
type Signal struct {
	Name    string
	Width   int
	Samples []Sample
	// x is the all-X value before the first sample, when Parse made one;
	// n counts the changes Parse found for the signal.
	x logic.Vec
	n int
}

// At returns the signal's value at time t (the most recent change at or
// before t). Before the first sample the value is all-X. The result is
// the trace's own storage: read it, do not modify it.
func (s *Signal) At(t uint64) logic.Vec {
	idx := sort.Search(len(s.Samples), func(i int) bool { return s.Samples[i].Time > t })
	if idx > 0 {
		return s.Samples[idx-1].Val
	}
	if s.x != nil {
		return s.x
	}
	return logic.NewVec(s.Width)
}

// Trace is a parsed VCD file.
type Trace struct {
	Design  string
	EndTime uint64
	Signals map[string]*Signal
}

// maxLine is the longest line Parse accepts, newline excluded: a longer
// one fails with bufio.ErrTooLong, as a bufio.Scanner of that limit does.
const maxLine = 1<<24 - 1

// maxXWidth bounds the signals Parse gives a ready all-X value for At:
// a declared width costs no memory until a wider signal is read before
// its first sample.
const maxXWidth = 64

// Parse reads a VCD stream produced by Writer (or any conforming dumper
// using the subset: $var wire, scalar and b-vector changes, #timestamps).
// It reads the whole stream (a *bytes.Buffer without a copy) and scans its
// lines in place. The value section is read twice: once to check it and
// count each signal's changes, then to fill the histories, every one cut
// from one sample slab and every value from one value slab.
func Parse(r io.Reader) (*Trace, error) {
	var data []byte
	if b, ok := r.(*bytes.Buffer); ok {
		data = b.Next(b.Len())
	} else {
		var err error
		if data, err = io.ReadAll(r); err != nil {
			return nil, err
		}
	}
	p := parser{tr: &Trace{Signals: map[string]*Signal{}}, byID: map[string]*Signal{}}
	body, err := p.defs(data)
	if err == nil {
		err = p.values(body, false)
	}
	if err != nil {
		return nil, err
	}
	total := 0
	for _, sig := range p.byID {
		total += sig.n
		if sig.Width <= maxXWidth {
			p.need += sig.Width
		}
	}
	p.slab = make(logic.Vec, 0, p.need)
	hist := make([]Sample, total)
	for _, sig := range p.byID {
		sig.Samples, hist = hist[:0:sig.n], hist[sig.n:]
		if sig.Width <= maxXWidth {
			sig.x = p.vec(sig.Width)
			for i := range sig.x {
				sig.x[i] = logic.X
			}
		}
	}
	if err := p.values(body, true); err != nil {
		return nil, err
	}
	return p.tr, nil
}

// parser is one Parse: the trace, its signals by id code, and the values
// the trace's samples and X vectors are cut from.
type parser struct {
	tr   *Trace
	byID map[string]*Signal
	need int       // values the samples and X vectors hold
	slab logic.Vec // their storage, need long
}

// line cuts data's first line, trimmed, and returns the rest; a line
// longer than maxLine is an error.
func line(data []byte) (l, rest []byte, err error) {
	l = data
	if i := bytes.IndexByte(data, '\n'); i >= 0 {
		l, rest = data[:i], data[i+1:]
	}
	if len(l) > maxLine {
		return nil, nil, bufio.ErrTooLong
	}
	return bytes.TrimSpace(l), rest, nil
}

// defs reads the declaration section up to $enddefinitions and returns
// what follows it.
func (p *parser) defs(data []byte) ([]byte, error) {
	for len(data) > 0 {
		l, rest, err := line(data)
		if err != nil {
			return nil, err
		}
		data = rest
		switch {
		case bytes.HasPrefix(l, []byte("$var")):
			// $var wire <width> <id> <name...> $end
			fields := strings.Fields(string(l))
			if len(fields) < 6 || fields[len(fields)-1] != "$end" {
				return nil, fmt.Errorf("vcd: malformed $var: %q", l)
			}
			width, err := strconv.Atoi(fields[2])
			if err != nil || width < 1 {
				return nil, fmt.Errorf("vcd: bad width in %q", l)
			}
			name := strings.Join(fields[4:len(fields)-1], " ")
			sig := &Signal{Name: name, Width: width}
			p.tr.Signals[name] = sig
			p.byID[fields[3]] = sig
		case bytes.HasPrefix(l, []byte("$enddefinitions")):
			return data, nil
		case bytes.HasPrefix(l, []byte("$scope")):
			fields := strings.Fields(string(l))
			if len(fields) >= 3 && p.tr.Design == "" {
				p.tr.Design = fields[2]
			}
		}
	}
	return nil, nil
}

// values reads the value section: timestamps, scalar and vector changes,
// and $ markers. Without fill it checks every line and counts each
// signal's changes and the values they hold; with fill, on a checked
// section, it appends the changes to the histories.
func (p *parser) values(body []byte, fill bool) error {
	var now uint64
	for len(body) > 0 {
		l, rest, err := line(body)
		if err != nil {
			return err
		}
		body = rest
		if len(l) == 0 {
			continue
		}
		var sig *Signal
		var bits []byte // the change's bits, LSB last
		var n int       // the values it holds
		switch c := l[0]; {
		case c == '#':
			t, err := strconv.ParseUint(string(l[1:]), 10, 64)
			if err != nil {
				return fmt.Errorf("vcd: bad timestamp %q", l)
			}
			now = t
			p.tr.EndTime = max(p.tr.EndTime, t)
			continue
		case c == 'b' || c == 'B':
			sp := bytes.IndexByte(l, ' ')
			if sp < 0 {
				return fmt.Errorf("vcd: malformed vector change %q", l)
			}
			id := bytes.TrimSpace(l[sp+1:])
			if sig = p.byID[string(id)]; sig == nil {
				return fmt.Errorf("vcd: change for unknown id %q", id)
			}
			// A vector may drop leading zeros: it is left-extended with 0
			// to the signal's width.
			bits = l[1:sp]
			n = max(len(bits), sig.Width)
		case c == '0' || c == '1' || c == 'x' || c == 'X' || c == 'z' || c == 'Z':
			if sig = p.byID[string(l[1:])]; sig == nil {
				return fmt.Errorf("vcd: change for unknown id %q", l[1:])
			}
			bits, n = l[:1], 1
		case c == '$':
			// $dumpvars / $end markers inside the value section.
			continue
		default:
			return fmt.Errorf("vcd: unrecognized line %q", l)
		}
		if !fill {
			sig.n++
			p.need += n
			continue
		}
		val := p.vec(n)
		for i := range val {
			val[i] = logic.L0
			if i < len(bits) {
				val[i] = logic.FromRune(bits[len(bits)-1-i])
			}
		}
		sig.Samples = append(sig.Samples, Sample{Time: now, Val: val})
	}
	return nil
}

// vec cuts n values from the slab, full-capped so no append reaches the
// next one.
func (p *parser) vec(n int) logic.Vec {
	k := len(p.slab)
	p.slab = p.slab[:k+n]
	return p.slab[k : k+n : k+n]
}

// Mismatch describes one divergence between two traces.
type Mismatch struct {
	Signal string
	Time   uint64
	Golden logic.Vec
	Faulty logic.Vec
}

// String formats the mismatch for reports.
func (m Mismatch) String() string {
	return fmt.Sprintf("%s@%dps golden=%s faulty=%s", m.Signal, m.Time, m.Golden, m.Faulty)
}

// Compare checks the faulty trace against the golden trace on the given
// signals (all common signals when names is nil) and returns every
// divergence, earliest first. Signals are compared at every change time of
// either trace, which catches both value and timing differences.
func Compare(golden, faulty *Trace, names []string) []Mismatch {
	if names == nil {
		for n := range golden.Signals {
			if _, ok := faulty.Signals[n]; ok {
				names = append(names, n)
			}
		}
		sort.Strings(names)
	}
	var out []Mismatch
	for _, name := range names {
		g, okG := golden.Signals[name]
		f, okF := faulty.Signals[name]
		if !okG || !okF {
			continue
		}
		times := mergeTimes(g, f)
		for _, t := range times {
			gv, fv := g.At(t), f.At(t)
			if !gv.Equal(fv) {
				out = append(out, Mismatch{Signal: name, Time: t, Golden: gv.Clone(), Faulty: fv.Clone()})
			}
		}
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Time != out[j].Time {
			return out[i].Time < out[j].Time
		}
		return out[i].Signal < out[j].Signal
	})
	return out
}

func mergeTimes(a, b *Signal) []uint64 {
	set := make(map[uint64]struct{}, len(a.Samples)+len(b.Samples))
	for _, s := range a.Samples {
		set[s.Time] = struct{}{}
	}
	for _, s := range b.Samples {
		set[s.Time] = struct{}{}
	}
	times := make([]uint64, 0, len(set))
	for t := range set {
		times = append(times, t)
	}
	sort.Slice(times, func(i, j int) bool { return times[i] < times[j] })
	return times
}

// Diverged reports whether the two traces differ on the named signals
// (all common signals when nil) — the soft-error predicate.
func Diverged(golden, faulty *Trace, names []string) bool {
	return len(Compare(golden, faulty, names)) > 0
}
