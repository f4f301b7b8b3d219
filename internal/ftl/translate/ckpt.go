package translate

import (
	"encoding/binary"

	"dloop/internal/ckpt"
	"dloop/internal/flash"
	"dloop/internal/ftl"
)

// Encode appends the engine's mutable state to w: mapping table, CMT, GTD,
// learned segments, and counters. The placer and tracker pointers are
// construction-time wiring, not state, and stay out.
func (m *Engine) Encode(w *ckpt.Writer) {
	ckpt.PutSlab(w, m.Table)
	m.Cache.encode(w)
	ckpt.PutSlab(w, m.GTD)
	if m.li == nil {
		w.U32(0)
	} else {
		w.U32(uint32(len(m.li.segs)))
		for _, segs := range m.li.segs {
			w.U32(uint32(len(segs)))
			for _, sg := range segs {
				w.I64(int64(sg.start))
				w.I32(sg.lpnStride)
				w.I32(sg.count)
				w.I64(int64(sg.base))
				w.I64(sg.ppnDelta)
			}
		}
	}
	w.I64(m.stats.Evictions)
	w.I64(m.stats.DirtyEvictions)
	w.I64(m.stats.TransReads)
	w.I64(m.stats.TransWrites)
	w.I64(m.stats.BatchCleaned)
	w.I64(m.stats.LazyRedirects)
	w.I64(m.stats.LearnedHits)
	w.I64(m.stats.LearnedFalse)
}

// Decode overwrites the engine's state with one written by Encode, in place.
// Table and GTD entries must be InvalidPPN or pages of the device, the CMT
// must fit the live cache (see Cache.decode), and the learned index must
// have the live one's shape with at most maxSegsPerTP well-formed segments
// per translation page.
func (m *Engine) Decode(r *ckpt.Reader) {
	geo := m.dev.Geometry()
	ckpt.SlabInto(r, m.Table)
	ftl.CheckPPNs(r, m.Table, geo, "mapping table")
	m.Cache.decode(r)
	ckpt.SlabInto(r, m.GTD)
	ftl.CheckPPNs(r, m.GTD, geo, "GTD")
	want := 0
	if m.li != nil {
		want = len(m.li.segs)
	}
	if n := r.Count(4); n != want { // per-segment-list count
		r.Failf("translate: %d learned segment lists, live index has %d", n, want)
		return
	}
	for i := 0; i < want; i++ {
		cnt := r.Len(32, maxSegsPerTP) // segment: start, stride, count, base, delta
		segs := m.li.segs[i][:0]
		for j := 0; j < cnt; j++ {
			sg := segment{
				start:     ftl.LPN(r.I64()),
				lpnStride: r.I32(),
				count:     r.I32(),
				base:      flash.PPN(r.I64()),
				ppnDelta:  r.I64(),
			}
			if sg.lpnStride < 1 || sg.count < 0 {
				r.Failf("translate: learned segment stride %d count %d", sg.lpnStride, sg.count)
				return
			}
			segs = append(segs, sg)
		}
		m.li.segs[i] = segs
	}
	m.stats = Stats{
		Evictions:      r.I64(),
		DirtyEvictions: r.I64(),
		TransReads:     r.I64(),
		TransWrites:    r.I64(),
		BatchCleaned:   r.I64(),
		LazyRedirects:  r.I64(),
		LearnedHits:    r.I64(),
		LearnedFalse:   r.I64(),
	}
}

// cache entry flag bits.
const (
	entryDirty     = 1 << 0
	entryProtected = 1 << 1
)

// encode appends the cache to w. The slab goes out entry-by-entry in slab
// order, so handles (slab indices) survive the round-trip and a restored
// cache is bit-identical, free list and recency links included.
func (c *Cache) encode(w *ckpt.Writer) {
	w.Int(c.n)
	w.U32(uint32(len(c.slab)))
	for _, e := range c.slab {
		w.I64(int64(e.lpn))
		w.I64(int64(e.ppn))
		var flags uint8
		if e.dirty {
			flags |= entryDirty
		}
		if e.protected {
			flags |= entryProtected
		}
		w.U8(flags)
		w.I32(e.prev)
		w.I32(e.next)
		w.I32(e.dPrev)
		w.I32(e.dNext)
	}
	w.I32(c.freeHead)
	// The flag selected between the dense and map lookup indexes; the
	// engine always builds its cache dense (NewCacheForSpace), so only
	// that variant is ever checkpointed.
	w.Bool(true)
	ckpt.PutSlab(w, c.dense)
	encodeList(w, c.probation)
	encodeList(w, c.protected)
	ckpt.PutSlab(w, c.tpHead)
	ckpt.PutSlab(w, c.tpCount)
	w.I64(c.hits)
	w.I64(c.misses)
}

// decode overwrites the cache with one written by encode, in place. The slab
// and the dense index must have the live cache's shape, and every handle
// (recency, free-list, dirty-list, and index links) must name a slab slot,
// every LPN a page the index covers, and every count fit the capacity.
func (c *Cache) decode(r *ckpt.Reader) {
	if c.n = r.Int(); c.n < 0 || c.n > c.capacity {
		r.Failf("translate: %d cached entries in a %d-entry cache", c.n, c.capacity)
		return
	}
	slots := uint32(len(c.slab))
	handle := func(h int32) bool { return uint32(h) < slots } // negative handles wrap past slots
	raw := r.Slab(len(c.slab), 33)                            // entry: lpn, ppn, flags, four links
	for i := 0; i < len(raw)/33; i++ {
		b := raw[33*i:]
		e := &c.slab[i]
		e.lpn = ftl.LPN(binary.LittleEndian.Uint64(b))
		e.ppn = flash.PPN(binary.LittleEndian.Uint64(b[8:]))
		flags := b[16]
		e.dirty = flags&entryDirty != 0
		e.protected = flags&entryProtected != 0
		e.prev = int32(binary.LittleEndian.Uint32(b[17:]))
		e.next = int32(binary.LittleEndian.Uint32(b[21:]))
		e.dPrev = int32(binary.LittleEndian.Uint32(b[25:]))
		e.dNext = int32(binary.LittleEndian.Uint32(b[29:]))
		if flags > entryDirty|entryProtected || e.lpn < 0 || int64(e.lpn) >= int64(len(c.dense)) ||
			!handle(e.prev) || !handle(e.next) || !handle(e.dPrev) || !handle(e.dNext) {
			r.Failf("translate: cache slot %d out of range", i)
			return
		}
	}
	if c.freeHead = r.I32(); !handle(c.freeHead) {
		r.Failf("translate: cache free list head %d", c.freeHead)
		return
	}
	if !r.Bool() || c.dense == nil {
		r.Failf("translate: checkpointed cache is not dense-indexed")
		return
	}
	ckpt.SlabInto(r, c.dense)
	for lpn, h := range c.dense {
		if uint32(h) >= slots {
			r.Failf("translate: cache index of lpn %d names slot %d", lpn, h)
			return
		}
	}
	c.probation = decodeList(r, int32(slots), c.capacity)
	c.protected = decodeList(r, int32(slots), c.capacity)
	ckpt.SlabInto(r, c.tpHead)
	ckpt.SlabInto(r, c.tpCount)
	for tp, h := range c.tpHead {
		if !handle(h) || c.tpCount[tp] < 0 || int(c.tpCount[tp]) > c.capacity {
			r.Failf("translate: dirty list of translation page %d", tp)
			return
		}
	}
	c.hits = r.I64()
	c.misses = r.I64()
}

func encodeList(w *ckpt.Writer, l list) {
	w.I32(l.head)
	w.I32(l.tail)
	w.Int(l.n)
}

func decodeList(r *ckpt.Reader, slots int32, capacity int) list {
	l := list{head: r.I32(), tail: r.I32(), n: r.Int()}
	if l.head < 0 || l.head >= slots || l.tail < 0 || l.tail >= slots || l.n < 0 || l.n > capacity {
		r.Failf("translate: recency list %+v out of range", l)
		return list{}
	}
	return l
}
