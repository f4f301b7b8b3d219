package dloop

import (
	"dloop/internal/ckpt"
	"dloop/internal/flash"
	"dloop/internal/ftl"
)

// EncodeState implements ftl.FTL: everything that changes as requests are
// served. Geometry, config, capacity, and the striping permutation are
// construction-time constants and stay out.
func (f *DLOOP) EncodeState(w *ckpt.Writer) {
	f.mapper.Encode(w)
	f.pool.Encode(w)
	f.tracker.Encode(w)
	w.U32(uint32(len(f.cur)))
	for _, wp := range f.cur {
		encodeWritePoint(w, wp)
	}
	f.engine.Encode(w)
	ckpt.PutSlab(w, f.planeWrites)
	w.I64(f.totalWrites)
}

// DecodeState implements ftl.FTL.
func (f *DLOOP) DecodeState(r *ckpt.Reader) {
	ftl.CheckTags(r, f.dev, f.capacity, f.mapper.TranslationPages())
	f.mapper.Decode(r)
	f.pool.Decode(r)
	f.tracker.Decode(r)
	if n := r.Count(25); n != len(f.cur) { // writePoint: three Ints, one Bool
		r.Failf("dloop: %d write points, live FTL has %d", n, len(f.cur))
		return
	}
	for i := range f.cur {
		f.cur[i] = decodeWritePoint(r, f.geo)
	}
	f.engine.Decode(r)
	ckpt.SlabInto(r, f.planeWrites)
	f.totalWrites = r.I64()
}

func encodeWritePoint(w *ckpt.Writer, wp writePoint) {
	ftl.EncodeBlock(w, wp.pb)
	w.Int(wp.next)
	w.Bool(wp.active)
}

func decodeWritePoint(r *ckpt.Reader, geo flash.Geometry) writePoint {
	return writePoint{
		pb:     ftl.DecodeBlock(r, geo),
		next:   ftl.DecodeOffset(r, geo),
		active: r.Bool(),
	}
}
