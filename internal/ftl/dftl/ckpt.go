package dftl

import (
	"dloop/internal/ckpt"
	"dloop/internal/flash"
	"dloop/internal/ftl"
)

// EncodeState implements ftl.FTL: the demand-paged mapping machinery plus
// the two global write points.
func (f *DFTL) EncodeState(w *ckpt.Writer) {
	f.mapper.Encode(w)
	f.pool.Encode(w)
	f.tracker.Encode(w)
	encodeWritePoint(w, f.data)
	encodeWritePoint(w, f.trans)
	f.engine.Encode(w)
}

// DecodeState implements ftl.FTL.
func (f *DFTL) DecodeState(r *ckpt.Reader) {
	ftl.CheckTags(r, f.dev, f.capacity, f.mapper.TranslationPages())
	f.mapper.Decode(r)
	f.pool.Decode(r)
	f.tracker.Decode(r)
	f.data = decodeWritePoint(r, f.geo)
	f.trans = decodeWritePoint(r, f.geo)
	f.engine.Decode(r)
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
