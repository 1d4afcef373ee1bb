package socgen

import (
	"fmt"

	"repro/internal/netlist"
)

// Generate builds the complete hierarchical gate-level netlist for one
// Table I benchmark. The produced design has the block structure
//
//	pulp_socN
//	├── u_cpu0[, u_cpu1]   CPU core(s): fetch/decode/alu/regfile[/mul/fpu]
//	├── u_bus               bus fabric (APB/AHB/AXI)
//	├── u_mem               memory banks of the configured bit-cell type
//	└── u_ctrl              reset synchronizer and status logic
//
// Primary inputs: clk, rstn, cmd_valid, cmd_write, cmd_addr[A],
// cmd_wdata[W]. Primary outputs: per-core accumulators, read-data parity,
// bus busy, and a cross-core checksum — the "main output signals" the
// paper's soft-error detector monitors.
//
// The design is not validated here: netlist.Flatten validates it, once,
// and TestGenerateAllBenchmarks flattens every Table I design.
func Generate(cfg Config) (*netlist.Design, error) {
	if cfg.Cores < 1 || cfg.Cores > 2 {
		return nil, fmt.Errorf("socgen: %d cores unsupported", cfg.Cores)
	}
	if _, err := cfg.MemCellName(); err != nil {
		return nil, err
	}
	d := netlist.NewDesign(cfg.Name)

	memName, addrW := genMemory(d, cfg)
	busName := genBus(d, cfg, addrW)
	coreName := genCPUCore(d, cfg)
	ctrlName := genCtrl(d)

	w := cfg.BusSimWidth
	cw := cfg.DataWidth
	top := netlist.NewModule(cfg.Name)
	top.AddPort("clk", netlist.Input)
	top.AddPort("rstn", netlist.Input)
	top.AddPort("cmd_valid", netlist.Input)
	top.AddPort("cmd_write", netlist.Input)
	cmdAddr := top.AddBusPort("cmd_addr", addrW, netlist.Input)
	cmdWdata := top.AddBusPort("cmd_wdata", w, netlist.Input)

	b := newBuilder(top)

	// Clock and reset distribution trees: buffered per block, so clock
	// buffers are legitimate SET targets as in a real SoC.
	clkBus := b.buf("clk")
	clkMem := b.buf("clk")
	clkCtrl := b.buf("clk")
	rstnSync := top.AddWire("rstn_sync")

	// Control block: reset synchronizer output feeds every reset pin.
	top.AddInstance("u_ctrl", ctrlName, map[string]string{
		"clk": clkCtrl, "rstn": "rstn", "rstn_sync": rstnSync,
	})

	// Bus.
	memWE := top.AddWire("mem_we")
	memAddr := top.AddBusWire("mem_addr", addrW)
	memWdata := top.AddBusWire("mem_wdata", w)
	memRdata := top.AddBusWire("mem_rdata", w)
	busRdata := top.AddBusWire("bus_rdata", w)
	busBusy := top.AddWire("bus_busy")
	bconns := map[string]string{
		"clk": clkBus, "rstn": rstnSync,
		"in_valid": "cmd_valid", "in_write": "cmd_write",
		"mem_we": memWE, "busy": busBusy,
	}
	for i := 0; i < addrW; i++ {
		bconns[fmt.Sprintf("in_addr[%d]", i)] = cmdAddr[i]
		bconns[fmt.Sprintf("mem_addr[%d]", i)] = memAddr[i]
	}
	for i := 0; i < w; i++ {
		bconns[fmt.Sprintf("in_wdata[%d]", i)] = cmdWdata[i]
		bconns[fmt.Sprintf("mem_wdata[%d]", i)] = memWdata[i]
		bconns[fmt.Sprintf("mem_rdata[%d]", i)] = memRdata[i]
		bconns[fmt.Sprintf("out_rdata[%d]", i)] = busRdata[i]
	}
	top.AddInstance("u_bus", busName, bconns)

	// Memory.
	mconns := map[string]string{"clk": clkMem, "we": memWE}
	for i := 0; i < addrW; i++ {
		mconns[fmt.Sprintf("addr[%d]", i)] = memAddr[i]
	}
	cols := cfg.MemCols
	memWdataAdapted := adapt(b, memWdata, cols)
	memRdataCols := top.AddBusWire("mem_rdata_cols", cols)
	for c := 0; c < cols; c++ {
		mconns[fmt.Sprintf("wdata[%d]", c)] = memWdataAdapted[c]
		mconns[fmt.Sprintf("rdata[%d]", c)] = memRdataCols[c]
	}
	top.AddInstance("u_mem", memName, mconns)
	// Route column read data back onto the bus width.
	back := adapt(b, memRdataCols, w)
	for i := 0; i < w; i++ {
		b.inst("mrb", "BUFX2", map[string]string{"A": back[i], "Y": memRdata[i]})
	}

	// CPU cores consume the bus read data.
	coreAccs := make([][]string, cfg.Cores)
	for core := 0; core < cfg.Cores; core++ {
		clkCore := b.buf("clk")
		acc := top.AddBusWire(fmt.Sprintf("acc%d", core), cw)
		rdataIn := adapt(b, busRdata, cw)
		if core == 1 {
			rdataIn = b.rotate(rdataIn)
		}
		cconns := map[string]string{"clk": clkCore, "rstn": rstnSync}
		for i := 0; i < cw; i++ {
			cconns[fmt.Sprintf("rdata[%d]", i)] = rdataIn[i]
			cconns[fmt.Sprintf("acc[%d]", i)] = acc[i]
		}
		top.AddInstance(fmt.Sprintf("u_cpu%d", core), coreName, cconns)
		coreAccs[core] = acc
	}

	// Primary outputs.
	outAcc := top.AddBusPort("acc_out", cw, netlist.Output)
	for i := 0; i < cw; i++ {
		b.inst("oab", "BUFX2", map[string]string{"A": coreAccs[0][i], "Y": outAcc[i]})
	}
	top.AddPort("rd_parity", netlist.Output)
	b.inst("opb", "BUFX2", map[string]string{"A": b.xorN(memRdataCols), "Y": "rd_parity"})
	top.AddPort("busy_out", netlist.Output)
	b.inst("obb", "BUFX2", map[string]string{"A": busBusy, "Y": "busy_out"})
	top.AddPort("checksum", netlist.Output)
	check := b.xorN(coreAccs[0])
	if cfg.Cores == 2 {
		check = b.xor2(check, b.xorN(coreAccs[1]))
		top.AddPort("acc1_parity", netlist.Output)
		b.inst("oc1", "BUFX2", map[string]string{"A": b.xorN(coreAccs[1]), "Y": "acc1_parity"})
	}
	b.inst("ocb", "BUFX2", map[string]string{"A": check, "Y": "checksum"})

	d.AddModule(top)
	d.Top = cfg.Name
	return d, nil
}

// genCtrl builds the control block: a two-stage reset synchronizer.
func genCtrl(d *netlist.Design) string {
	const name = "soc_ctrl"
	if _, ok := d.Modules[name]; ok {
		return name
	}
	m := netlist.NewModule(name)
	m.AddPort("clk", netlist.Input)
	m.AddPort("rstn", netlist.Input)
	m.AddPort("rstn_sync", netlist.Output)
	b := newBuilder(m)
	one := b.tie1()
	s1 := b.dff(one, "clk", "rstn")
	s2 := b.dff(s1, "clk", "rstn")
	b.inst("rsb", "BUFX2", map[string]string{"A": s2, "Y": "rstn_sync"})
	d.AddModule(m)
	return name
}
