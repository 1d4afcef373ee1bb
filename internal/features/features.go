// Package features extracts the structural circuit-node features the SVM
// classifier learns from, mirroring Fig. 4 of the paper. The paper's six
// selected features come first (top_mod_type, reg_type, delay_unit_count,
// signal_type, layer_depth, signal_bit); four further candidates
// (fanout_count, fanin_count, cell_area, drive_delay) complete the
// ten-feature pool the Fig. 5 selection sweep searches over.
//
// Feature engineering follows the paper's pipeline: extraction, cleaning,
// categorical encoding (the *_type features are integer category codes),
// and min-max normalization via a Scaler fitted on training data only.
package features

import (
	"fmt"
	"math"
	"sort"
	"strconv"
	"strings"

	"repro/internal/cell"
	"repro/internal/netlist"
)

// Names lists the feature pool in order; the paper's six come first.
func Names() []string {
	return []string{
		"top_mod_type",
		"reg_type",
		"delay_unit_count",
		"signal_type",
		"layer_depth",
		"signal_bit",
		"fanout_count",
		"fanin_count",
		"cell_area",
		"drive_delay",
	}
}

// PaperFeatureCount is the number of features the paper's Fig. 5 sweep
// selects (the first six of Names).
const PaperFeatureCount = 6

// Matrix is a dense feature matrix: one row per circuit node.
type Matrix struct {
	Names []string
	Rows  [][]float64
}

// Clone deep-copies the matrix.
func (m *Matrix) Clone() *Matrix {
	out := &Matrix{Names: append([]string{}, m.Names...)}
	out.Rows = make([][]float64, len(m.Rows))
	for i, r := range m.Rows {
		out.Rows[i] = append([]float64{}, r...)
	}
	return out
}

// Select returns a new matrix keeping only the given column indices.
func (m *Matrix) Select(cols []int) (*Matrix, error) {
	out := &Matrix{}
	for _, c := range cols {
		if c < 0 || c >= len(m.Names) {
			return nil, fmt.Errorf("features: column %d out of range", c)
		}
		out.Names = append(out.Names, m.Names[c])
	}
	out.Rows = make([][]float64, len(m.Rows))
	for i, r := range m.Rows {
		row := make([]float64, len(cols))
		for j, c := range cols {
			row[j] = r[c]
		}
		out.Rows[i] = row
	}
	return out, nil
}

// Extract computes the feature matrix for every cell of a flattened design,
// in cell-ID order.
func Extract(f *netlist.Flat) *Matrix {
	m := &Matrix{Names: Names()}
	m.Rows = make([][]float64, len(f.Cells))
	for i, c := range f.Cells {
		m.Rows[i] = extractCell(f, c)
	}
	return m
}

func extractCell(f *netlist.Flat, c *netlist.FlatCell) []float64 {
	return []float64{
		float64(topModCode(c)),
		float64(regTypeCode(c.Def)),
		float64(c.Level),
		float64(signalTypeCode(f, c)),
		float64(c.Depth()),
		float64(signalBit(f, c)),
		float64(fanoutCount(f, c)),
		float64(len(c.Def.Inputs)),
		c.Def.AreaUM2,
		float64(c.Def.DelayPS),
	}
}

// topModCode encodes the functional block the node sits in.
func topModCode(c *netlist.FlatCell) int {
	blk := c.FunctionalBlock()
	switch {
	case strings.HasPrefix(blk, "u_cpu"):
		return 1
	case strings.HasPrefix(blk, "u_bus"):
		return 2
	case strings.HasPrefix(blk, "u_mem"):
		return 3
	case strings.HasPrefix(blk, "u_ctrl"):
		return 4
	default:
		return 5
	}
}

// regTypeCode encodes the cell family.
func regTypeCode(d *cell.Def) int {
	n := d.Name
	switch {
	case strings.HasPrefix(n, "DFFR"):
		return 1
	case strings.HasPrefix(n, "DFFS"):
		return 2
	case strings.HasPrefix(n, "DFFE"):
		return 3
	case strings.HasPrefix(n, "DFF"):
		return 4
	case strings.HasPrefix(n, "SRAMBIT"):
		return 5
	case strings.HasPrefix(n, "DRAMBIT"):
		return 6
	case strings.HasPrefix(n, "RHSRAMBIT"):
		return 7
	case strings.HasPrefix(n, "INV"), strings.HasPrefix(n, "BUF"):
		return 8
	case strings.HasPrefix(n, "NAND"), strings.HasPrefix(n, "NOR"):
		return 9
	case strings.HasPrefix(n, "AND"), strings.HasPrefix(n, "OR"):
		return 10
	case strings.HasPrefix(n, "XOR"), strings.HasPrefix(n, "XNOR"):
		return 11
	case strings.HasPrefix(n, "MUX"):
		return 12
	case strings.HasPrefix(n, "AOI"), strings.HasPrefix(n, "OAI"):
		return 13
	case strings.HasPrefix(n, "HA"), strings.HasPrefix(n, "FA"):
		return 14
	default:
		return 15
	}
}

// signalTypeCode classifies the node's primary output by what it drives:
// 3 clock, 2 control (enable/reset/set), 1 register data, 0 pure logic.
func signalTypeCode(f *netlist.Flat, c *netlist.FlatCell) int {
	if len(c.Out) == 0 {
		return 0
	}
	code := 0
	for _, fo := range f.Nets[c.Out[0]].Fanout {
		sink := f.Cells[fo.Cell]
		if !sink.Def.IsSequential() {
			continue
		}
		port := sink.Def.Inputs[fo.Pin]
		s := sink.Def.Seq
		switch port {
		case s.Clock:
			return 3
		case s.Enable, s.AsyncResetN, s.AsyncSetN:
			if code < 2 {
				code = 2
			}
		case s.DataPort:
			if code < 1 {
				code = 1
			}
		}
	}
	return code
}

// signalBit parses the bit index from the output net's name ("acc[3]" ->
// 3), or 0 for scalar signals.
func signalBit(f *netlist.Flat, c *netlist.FlatCell) int {
	if len(c.Out) == 0 {
		return 0
	}
	name := f.Nets[c.Out[0]].Name
	open := strings.LastIndexByte(name, '[')
	closeIdx := strings.LastIndexByte(name, ']')
	if open < 0 || closeIdx < open {
		return 0
	}
	n, err := strconv.Atoi(name[open+1 : closeIdx])
	if err != nil || n < 0 {
		return 0
	}
	return n
}

func fanoutCount(f *netlist.Flat, c *netlist.FlatCell) int {
	n := 0
	for _, o := range c.Out {
		n += len(f.Nets[o].Fanout)
	}
	return n
}

// Scaler min-max normalizes columns to [0,1], fitted on training rows only
// so test data cannot leak into the scaling.
type Scaler struct {
	Min, Max []float64
}

// FitScaler computes per-column ranges over the matrix.
func FitScaler(m *Matrix) *Scaler {
	if len(m.Rows) == 0 {
		return &Scaler{}
	}
	d := len(m.Rows[0])
	s := &Scaler{Min: make([]float64, d), Max: make([]float64, d)}
	for j := 0; j < d; j++ {
		s.Min[j] = math.Inf(1)
		s.Max[j] = math.Inf(-1)
	}
	for _, r := range m.Rows {
		for j, v := range r {
			if v < s.Min[j] {
				s.Min[j] = v
			}
			if v > s.Max[j] {
				s.Max[j] = v
			}
		}
	}
	return s
}

// Transform returns a normalized copy of the matrix. Constant columns map
// to 0.
func (s *Scaler) Transform(m *Matrix) *Matrix {
	out := m.Clone()
	for _, r := range out.Rows {
		for j := range r {
			if j >= len(s.Min) {
				continue
			}
			span := s.Max[j] - s.Min[j]
			if span <= 0 {
				r[j] = 0
				continue
			}
			v := (r[j] - s.Min[j]) / span
			if v < 0 {
				v = 0
			} else if v > 1 {
				v = 1
			}
			r[j] = v
		}
	}
	return out
}

// Clean drops rows containing NaN or Inf values, returning the cleaned
// matrix, matching labels, and the kept row indices — the paper's data
// cleaning step.
func Clean(m *Matrix, labels []bool) (*Matrix, []bool, []int) {
	out := &Matrix{Names: append([]string{}, m.Names...)}
	var keptLabels []bool
	var kept []int
	for i, r := range m.Rows {
		ok := true
		for _, v := range r {
			if math.IsNaN(v) || math.IsInf(v, 0) {
				ok = false
				break
			}
		}
		if !ok {
			continue
		}
		out.Rows = append(out.Rows, append([]float64{}, r...))
		if labels != nil {
			keptLabels = append(keptLabels, labels[i])
		}
		kept = append(kept, i)
	}
	return out, keptLabels, kept
}

// RankByCorrelation orders feature indices by descending absolute
// point-biserial correlation with the binary labels — the univariate
// ranking behind the Fig. 5 forward-selection sweep.
func RankByCorrelation(m *Matrix, labels []bool) []int {
	n := len(m.Rows)
	if n == 0 {
		return nil
	}
	d := len(m.Rows[0])
	scores := make([]float64, d)
	var nPos int
	for _, l := range labels {
		if l {
			nPos++
		}
	}
	nNeg := n - nPos
	for j := 0; j < d; j++ {
		var meanP, meanN, mean float64
		for i, r := range m.Rows {
			mean += r[j]
			if labels[i] {
				meanP += r[j]
			} else {
				meanN += r[j]
			}
		}
		mean /= float64(n)
		if nPos == 0 || nNeg == 0 {
			continue
		}
		meanP /= float64(nPos)
		meanN /= float64(nNeg)
		var variance float64
		for _, r := range m.Rows {
			d := r[j] - mean
			variance += d * d
		}
		variance /= float64(n)
		if variance <= 0 {
			continue
		}
		scores[j] = math.Abs((meanP - meanN) / math.Sqrt(variance) *
			math.Sqrt(float64(nPos)*float64(nNeg)/float64(n*n)))
	}
	idx := make([]int, d)
	for i := range idx {
		idx[i] = i
	}
	sort.SliceStable(idx, func(a, b int) bool { return scores[idx[a]] > scores[idx[b]] })
	return idx
}
