package vcd

import (
	"fmt"
	"io"

	"repro/internal/logic"
	"repro/internal/wire"
)

// Versioned binary wire codec for WriterState, the warm-start detector's
// mid-stream writer snapshot. Encoding is deterministic (signals are
// written in declaration order) so identical states always produce
// identical bytes — the property the content-addressed artifact lake
// keys on. Decoding is strict: truncated or malformed input is rejected
// with an error, and nothing is allocated ahead of the bytes that back it.

const (
	stateMagic   uint32 = 0x56535431 // "VST1"
	stateVersion byte   = 1
)

// Encode writes st to w in the versioned binary wire format.
func (st *WriterState) Encode(w io.Writer) error {
	if st == nil {
		return fmt.Errorf("vcd: encode nil writer state")
	}
	var e wire.Writer
	e.U32(stateMagic)
	e.Byte(stateVersion)
	e.U64(st.Time)
	e.Bool(st.TimeSet)
	e.Int(len(st.order))
	for _, name := range st.order {
		e.String(name)
		e.String(st.ids[name])
		e.Int(st.Widths[name])
		last := st.Last[name]
		e.Int(len(last))
		e.Values(last)
	}
	_, err := w.Write(e.Bytes())
	return err
}

// DecodeWriterState reads one WriterState in the format Encode produces.
func DecodeWriterState(r io.Reader) (*WriterState, error) {
	raw, err := io.ReadAll(r)
	if err != nil {
		return nil, fmt.Errorf("vcd: read writer-state blob: %w", err)
	}
	return DecodeWriterStateBytes(raw)
}

// DecodeWriterStateBytes is DecodeWriterState over a blob already in
// memory, read in place; the returned state keeps no reference to raw.
func DecodeWriterStateBytes(raw []byte) (*WriterState, error) {
	d := wire.NewReader("vcd: writer-state blob", raw)
	if m := d.U32(); d.Err() == nil && m != stateMagic {
		d.Fail("bad magic %#x", m)
	}
	if v := d.Byte(); d.Err() == nil && v != stateVersion {
		d.Fail("unsupported codec version %d", v)
	}
	st := &WriterState{
		Time:    d.U64(),
		TimeSet: d.Bool(),
		Widths:  map[string]int{},
		Last:    map[string]logic.Vec{},
		ids:     map[string]string{},
	}
	for i, n := 0, d.Count(4); i < n; i++ {
		name := d.String()
		id := d.String()
		width := d.Int()
		last := logic.Vec(d.Values(d.Count(1)))
		if d.Err() != nil {
			return nil, d.Err()
		}
		if _, dup := st.ids[name]; dup {
			return nil, fmt.Errorf("vcd: writer-state blob declares %q twice", name)
		}
		st.order = append(st.order, name)
		st.ids[name] = id
		st.Widths[name] = width
		if len(last) > 0 {
			st.Last[name] = last
		}
	}
	if err := d.Done(); err != nil {
		return nil, err
	}
	return st, nil
}
