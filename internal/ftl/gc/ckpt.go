package gc

import "dloop/internal/ckpt"

// Encode appends the engine's reentrancy guards and counters to w. The
// tracker is scheme-owned state and is encoded by the scheme.
func (e *Engine) Encode(w *ckpt.Writer) {
	w.Int(e.depth)
	w.Bools(e.collecting)
	w.I64(e.stats.Runs)
	w.I64(e.stats.Moves)
	w.I64(e.stats.CopyBacks)
	w.I64(e.stats.External)
	w.I64(e.stats.ParityWaste)
}

// Decode overwrites the engine's guards and counters with ones written by
// Encode.
func (e *Engine) Decode(r *ckpt.Reader) {
	if e.depth = r.Int(); e.depth < 0 {
		r.Failf("gc: collection depth %d", e.depth)
	}
	r.BoolsInto(e.collecting)
	e.stats = Stats{
		Runs:        r.I64(),
		Moves:       r.I64(),
		CopyBacks:   r.I64(),
		External:    r.I64(),
		ParityWaste: r.I64(),
	}
}
