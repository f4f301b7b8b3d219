package bast

import (
	"slices"

	"dloop/internal/ckpt"
	"dloop/internal/ftl"
)

// EncodeState implements ftl.FTL: block map, the per-logical-block log
// blocks, their allocation order, and the merge counters.
func (f *BAST) EncodeState(w *ckpt.Writer) {
	f.pool.Encode(w)
	ckpt.PutSlab(w, f.dataBlock)
	w.U32(uint32(len(f.logs)))
	for _, l := range f.logs {
		w.Bool(l != nil)
		if l == nil {
			continue
		}
		w.I64(l.lbn)
		ftl.EncodeBlock(w, l.pb)
		w.Int(l.next)
		w.Ints(l.pageFor)
		w.Bool(l.seq)
	}
	w.Int(f.nLogs)
	ckpt.PutSlab(w, f.logOrder)
	f.engine.Encode(w)
	w.I64(f.stats.SwitchMerges)
	w.I64(f.stats.FullMerges)
	w.I64(f.stats.MergeCopies)
	w.I64(f.stats.Thrashes)
}

// DecodeState implements ftl.FTL. Live log blocks are reused. Each log block
// must belong to its own logical block and map offsets to pages of one
// block; the allocation order must list exactly the open log blocks, within
// the log budget.
func (f *BAST) DecodeState(r *ckpt.Reader) {
	ftl.CheckTags(r, f.dev, f.capacity, 0)
	f.pool.Decode(r)
	ckpt.SlabInto(r, f.dataBlock)
	for lbn, b := range f.dataBlock {
		if b < -1 || b >= f.geo.TotalBlocks() {
			r.Failf("bast: logical block %d maps to block %d", lbn, b)
			return
		}
	}
	if n := r.Count(1); n != len(f.logs) { // presence flag
		r.Failf("bast: %d log slots, live FTL has %d", n, len(f.logs))
		return
	}
	open := 0
	for i := range f.logs {
		if !r.Bool() {
			f.logs[i] = nil
			continue
		}
		l := f.logs[i]
		if l == nil {
			l = &logBlock{pageFor: make([]int, f.geo.PagesPerBlock)}
			f.logs[i] = l
		}
		l.lbn = r.I64()
		l.pb = ftl.DecodeBlock(r, f.geo)
		l.next = ftl.DecodeOffset(r, f.geo)
		r.IntsInto(l.pageFor)
		l.seq = r.Bool()
		if l.lbn != int64(i) {
			r.Failf("bast: log slot %d holds logical block %d", i, l.lbn)
			return
		}
		for off, p := range l.pageFor {
			if p < -1 || p >= f.geo.PagesPerBlock {
				r.Failf("bast: log block %d maps offset %d to page %d", i, off, p)
				return
			}
		}
		open++
	}
	if f.nLogs = r.Int(); f.nLogs != open || open > f.cfg.LogBlocks {
		r.Failf("bast: %d open log blocks recorded, %d present, budget %d", f.nLogs, open, f.cfg.LogBlocks)
		return
	}
	f.logOrder = r.AppendI64s(f.logOrder[:0], f.cfg.LogBlocks)
	for i, lbn := range f.logOrder {
		if lbn < 0 || lbn >= int64(len(f.logs)) || f.logs[lbn] == nil {
			r.Failf("bast: allocation order names logical block %d without a log", lbn)
			return
		}
		if slices.Contains(f.logOrder[:i], lbn) {
			r.Failf("bast: allocation order lists logical block %d twice", lbn)
			return
		}
	}
	if len(f.logOrder) != open && r.Err() == nil {
		r.Failf("bast: allocation order lists %d of %d log blocks", len(f.logOrder), open)
		return
	}
	f.engine.Decode(r)
	f.stats = Stats{
		SwitchMerges: r.I64(),
		FullMerges:   r.I64(),
		MergeCopies:  r.I64(),
		Thrashes:     r.I64(),
	}
}
