// Package socgen generates the gate-level netlists of the ten PULP-style
// RISC-V SoC benchmarks of Table I. Each configuration varies the memory
// (type and size), the bus fabric (APB/AHB/AXI and bit width), and the CPU
// (ISA subset and core count), exactly along the axes the paper sweeps.
//
// Real memory arrays and kilobit buses are far beyond a laptop-scale
// gate-level simulation, so each benchmark is generated at a reduced scale
// with explicit representation weights: a simulated memory bit stands for
// RealMemBits/SimMemBits physical bits when cross-sections and upset rates
// are extrapolated. The hierarchy shape (top / block / sub-block / leaf
// cells), the cell mix, and the relative scaling between configurations are
// preserved, which is what the paper's trends rest on.
package socgen

import "fmt"

// Config describes one Table I benchmark.
type Config struct {
	Index   int    // 1..10, as in "PULP SoC1"
	Name    string // "pulp_soc1"
	MemType string // "SRAM", "DRAM", or "RadHardSRAM"
	MemKB   int    // real memory size in KiB
	BusType string // "APB", "AHB", or "AXI"
	BusBits int    // real bus width in bits
	ISA     string // "RV32I".."RV64I"
	Cores   int    // 1 or 2
	// KN is Table I's "Number of clusters": the paper's Algorithm 1
	// cluster count K_N for this benchmark. Campaign fingerprints, and so
	// journals and lake keys, depend on it.
	KN int

	// Scaled-model knobs derived from the real parameters.
	MemRows     int // simulated memory rows
	MemCols     int // simulated bits per row
	BusSimWidth int // simulated bus data width
	DataWidth   int // CPU datapath width in the scaled model
}

// SimMemBits returns the number of simulated memory bit cells.
func (c Config) SimMemBits() int { return c.MemRows * c.MemCols }

// RealMemBits returns the physical bit count of the configured memory.
func (c Config) RealMemBits() float64 { return float64(c.MemKB) * 1024 * 8 }

// MemWeight is the number of physical memory bits each simulated bit cell
// represents.
func (c Config) MemWeight() float64 {
	return c.RealMemBits() / float64(c.SimMemBits())
}

// BusWeight is the number of physical bus bit lanes each simulated lane
// represents.
func (c Config) BusWeight() float64 {
	return float64(c.BusBits) / float64(c.BusSimWidth)
}

// HasMul reports whether the ISA includes the M extension.
func (c Config) HasMul() bool {
	switch c.ISA {
	case "RV32IM", "RV32IMF", "RV32IMAFD":
		return true
	}
	return false
}

// HasFPU reports whether the ISA includes floating point (F or D).
func (c Config) HasFPU() bool {
	switch c.ISA {
	case "RV32IMF", "RV32IMAFD":
		return true
	}
	return false
}

// MemCellName maps the memory type to its library bit cell.
func (c Config) MemCellName() (string, error) {
	switch c.MemType {
	case "SRAM":
		return "SRAMBITX1", nil
	case "DRAM":
		return "DRAMBITX1", nil
	case "RadHardSRAM":
		return "RHSRAMBITX1", nil
	}
	return "", fmt.Errorf("socgen: unknown memory type %q", c.MemType)
}

// TableIConfigs returns the ten benchmark configurations of Table I with
// their scaled-model parameters.
func TableIConfigs() []Config {
	base := []Config{
		{Index: 1, MemType: "SRAM", MemKB: 64, BusType: "APB", BusBits: 8, ISA: "RV32I", Cores: 1, KN: 5},
		{Index: 2, MemType: "DRAM", MemKB: 64, BusType: "APB", BusBits: 16, ISA: "RV32I", Cores: 2, KN: 6},
		{Index: 3, MemType: "SRAM", MemKB: 256, BusType: "AHB", BusBits: 32, ISA: "RV32IM", Cores: 1, KN: 8},
		{Index: 4, MemType: "DRAM", MemKB: 256, BusType: "AHB", BusBits: 64, ISA: "RV32IM", Cores: 2, KN: 9},
		{Index: 5, MemType: "SRAM", MemKB: 1024, BusType: "AXI", BusBits: 128, ISA: "RV32IMF", Cores: 1, KN: 14},
		{Index: 6, MemType: "DRAM", MemKB: 1024, BusType: "AXI", BusBits: 256, ISA: "RV32IMF", Cores: 2, KN: 15},
		{Index: 7, MemType: "SRAM", MemKB: 2048, BusType: "APB", BusBits: 512, ISA: "RV32IMAFD", Cores: 1, KN: 18},
		{Index: 8, MemType: "DRAM", MemKB: 2048, BusType: "APB", BusBits: 1024, ISA: "RV32IMAFD", Cores: 2, KN: 19},
		{Index: 9, MemType: "SRAM", MemKB: 4096, BusType: "AHB", BusBits: 2048, ISA: "RV64I", Cores: 1, KN: 21},
		{Index: 10, MemType: "RadHardSRAM", MemKB: 4096, BusType: "AHB", BusBits: 4096, ISA: "RV64I", Cores: 2, KN: 23},
	}
	memScale := map[int][2]int{ // MemKB -> rows, cols
		64:   {8, 8},
		256:  {16, 8},
		1024: {16, 16},
		2048: {24, 16},
		4096: {32, 16},
	}
	busScale := map[int]int{ // real bus bits -> simulated width
		8: 8, 16: 10, 32: 12, 64: 14, 128: 16,
		256: 18, 512: 20, 1024: 22, 2048: 24, 4096: 26,
	}
	isaWidth := map[string]int{
		"RV32I": 8, "RV32IM": 8, "RV32IMF": 10, "RV32IMAFD": 12, "RV64I": 14,
	}
	for i := range base {
		c := &base[i]
		c.Name = fmt.Sprintf("pulp_soc%d", c.Index)
		ms := memScale[c.MemKB]
		c.MemRows, c.MemCols = ms[0], ms[1]
		c.BusSimWidth = busScale[c.BusBits]
		c.DataWidth = isaWidth[c.ISA]
	}
	return base
}

// ConfigByIndex returns the Table I configuration with the given 1-based
// index.
func ConfigByIndex(idx int) (Config, error) {
	for _, c := range TableIConfigs() {
		if c.Index == idx {
			return c, nil
		}
	}
	return Config{}, fmt.Errorf("socgen: no PULP SoC%d in Table I", idx)
}
