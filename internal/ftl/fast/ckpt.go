package fast

import (
	"dloop/internal/ckpt"
	"dloop/internal/ftl"
)

// EncodeState implements ftl.FTL: block map, log page map, and the SW/RW
// log block machinery.
func (f *FAST) EncodeState(w *ckpt.Writer) {
	f.pool.Encode(w)
	ckpt.PutSlab(w, f.dataBlock)
	ckpt.PutSlab(w, f.logMap)
	w.I64(f.swLBN)
	ftl.EncodeBlock(w, f.swBlock)
	w.Int(f.swNext)
	w.Bool(f.rwActive)
	ftl.EncodeBlock(w, f.rwBlock)
	w.Int(f.rwNext)
	w.U32(uint32(len(f.rwFull)))
	for _, pb := range f.rwFull {
		ftl.EncodeBlock(w, pb)
	}
	f.engine.Encode(w)
	w.I64(f.stats.SwitchMerges)
	w.I64(f.stats.PartialMerges)
	w.I64(f.stats.FullMerges)
	w.I64(f.stats.MergeCopies)
}

// DecodeState implements ftl.FTL. Data blocks must be -1 or blocks of the
// device, log-map entries InvalidPPN or its pages, the SW log owner -1 or
// an exported logical block, and the full RW list no longer than the log.
func (f *FAST) DecodeState(r *ckpt.Reader) {
	ftl.CheckTags(r, f.dev, f.capacity, 0)
	f.pool.Decode(r)
	ckpt.SlabInto(r, f.dataBlock)
	for lbn, b := range f.dataBlock {
		if b < -1 || b >= f.geo.TotalBlocks() {
			r.Failf("fast: logical block %d maps to block %d", lbn, b)
			return
		}
	}
	ckpt.SlabInto(r, f.logMap)
	ftl.CheckPPNs(r, f.logMap, f.geo, "log map")
	if f.swLBN = r.I64(); f.swLBN < -1 || f.swLBN >= f.lbns {
		r.Failf("fast: SW log owner %d", f.swLBN)
		return
	}
	f.swBlock = ftl.DecodeBlock(r, f.geo)
	f.swNext = ftl.DecodeOffset(r, f.geo)
	f.rwActive = r.Bool()
	f.rwBlock = ftl.DecodeBlock(r, f.geo)
	f.rwNext = ftl.DecodeOffset(r, f.geo)
	n := r.Len(16, f.cfg.LogBlocks) // PlaneBlock: two Ints
	f.rwFull = f.rwFull[:0]
	for i := 0; i < n; i++ {
		f.rwFull = append(f.rwFull, ftl.DecodeBlock(r, f.geo))
	}
	f.engine.Decode(r)
	f.stats = Stats{
		SwitchMerges:  r.I64(),
		PartialMerges: r.I64(),
		FullMerges:    r.I64(),
		MergeCopies:   r.I64(),
	}
}
