package netlist

// Presize exposes Flatten's pre-count to the external tests, which need
// the socgen designs (socgen imports this package).
func Presize(d *Design) (nets, cells, netNames int) {
	c := d.presize()
	return c.nets, c.cells, c.netNames
}
