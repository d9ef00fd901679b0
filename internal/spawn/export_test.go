package spawn

// Extremes exposes the boundary sweep's field values to the external
// tests.
func (o *Operand) Extremes(d *Desc) (in, out []int64) { return o.extremes(d) }
