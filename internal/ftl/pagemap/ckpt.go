package pagemap

import (
	"dloop/internal/ckpt"
	"dloop/internal/ftl"
)

// EncodeState implements ftl.FTL: the in-SRAM table plus pool, tracker,
// and write points.
func (f *PureMap) EncodeState(w *ckpt.Writer) {
	ckpt.PutSlab(w, f.table)
	f.pool.Encode(w)
	f.tracker.Encode(w)
	w.U32(uint32(len(f.cur)))
	for _, wp := range f.cur {
		ftl.EncodeBlock(w, wp.pb)
		w.Int(wp.next)
		w.Bool(wp.active)
	}
	f.engine.Encode(w)
}

// DecodeState implements ftl.FTL.
func (f *PureMap) DecodeState(r *ckpt.Reader) {
	ftl.CheckTags(r, f.dev, f.capacity, 0)
	ckpt.SlabInto(r, f.table)
	ftl.CheckPPNs(r, f.table, f.geo, "mapping table")
	f.pool.Decode(r)
	f.tracker.Decode(r)
	if n := r.Count(25); n != len(f.cur) { // writePoint: three Ints, one Bool
		r.Failf("pagemap: %d write points, live FTL has %d", n, len(f.cur))
		return
	}
	for i := range f.cur {
		f.cur[i] = writePoint{
			pb:     ftl.DecodeBlock(r, f.geo),
			next:   ftl.DecodeOffset(r, f.geo),
			active: r.Bool(),
		}
	}
	f.engine.Decode(r)
}
