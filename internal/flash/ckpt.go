package flash

import (
	"encoding/binary"

	"dloop/internal/ckpt"
	"dloop/internal/sim"
)

// Encode appends the device's mutable state to w. The big columns (page
// states, OOB logical tags, block bookkeeping) go out as contiguous
// length-prefixed slabs; the resource timelines and statistics follow.
func (d *Device) Encode(w *ckpt.Writer) {
	ckpt.PutSlab(w, d.state)
	ckpt.PutSlab(w, d.lpns)
	w.U32(uint32(len(d.blocks)))
	for _, b := range d.blocks {
		w.I32(int32(b.Valid))
		w.I32(int32(b.Invalid))
		w.I32(int32(b.Written))
		w.I32(int32(b.Erases))
		w.I32(int32(b.NextWrite))
	}
	encodeResources(w, d.planes)
	encodeResources(w, d.chipBus)
	encodeResources(w, d.channels)
	d.stats.encode(w)
}

// Decode overwrites the device's mutable state with one written by Encode,
// in place. Every slab must have the live device's length, every page state
// must be a known one, and every per-block count must lie within a block;
// anything else fails r and leaves the device partly overwritten. The OOB
// tags are the FTL's to check (ftl.CheckTags): only it knows their range.
func (d *Device) Decode(r *ckpt.Reader) {
	ckpt.SlabInto(r, d.state)
	for i, v := range d.state {
		if v > PageInvalid {
			r.Failf("flash: page %d has state %d", i, v)
			return
		}
	}
	ckpt.SlabInto(r, d.lpns)
	raw := r.Slab(len(d.blocks), 20) // BlockInfo: five I32s
	ppb := int32(d.geo.PagesPerBlock)
	for i := 0; i < len(raw); i += 20 {
		var f [5]int32
		for k := range f {
			f[k] = int32(binary.LittleEndian.Uint32(raw[i+4*k:]))
		}
		if f[0] < 0 || f[0] > ppb || f[1] < 0 || f[1] > ppb || f[2] < 0 || f[2] > ppb ||
			f[3] < 0 || f[4] < 0 || f[4] > ppb {
			r.Failf("flash: block %d counts %v outside a %d-page block", i/20, f, ppb)
			return
		}
		d.blocks[i/20] = BlockInfo{Valid: int(f[0]), Invalid: int(f[1]), Written: int(f[2]),
			Erases: int(f[3]), NextWrite: int(f[4])}
	}
	decodeResources(r, d.planes)
	decodeResources(r, d.chipBus)
	decodeResources(r, d.channels)
	d.stats.decode(r)
}

func encodeResources(w *ckpt.Writer, rs []*sim.Resource) {
	w.U32(uint32(len(rs)))
	for _, res := range rs {
		res.Encode(w)
	}
}

func decodeResources(r *ckpt.Reader, rs []*sim.Resource) {
	if n := r.Count(28); n != len(rs) { // resource: three I64s, interval count
		r.Failf("flash: %d resource timelines, device has %d", n, len(rs))
		return
	}
	for _, res := range rs {
		res.Decode(r)
	}
}

func (s *Stats) encode(w *ckpt.Writer) {
	for op := opKind(0); op < numOps; op++ {
		for c := Cause(0); c < numCauses; c++ {
			w.I64(s.ops[op][c])
			w.I64(int64(s.latency[op][c]))
		}
	}
	w.U32(uint32(len(s.PlaneOps)))
	for _, p := range s.PlaneOps {
		for c := Cause(0); c < numCauses; c++ {
			w.I64(p[c])
		}
	}
	ckpt.PutSlab(w, s.BlockErases)
	w.I64(s.WastedPages)
}

func (s *Stats) decode(r *ckpt.Reader) {
	for op := opKind(0); op < numOps; op++ {
		for c := Cause(0); c < numCauses; c++ {
			s.ops[op][c] = r.I64()
			s.latency[op][c] = sim.Duration(r.I64())
		}
	}
	raw := r.Slab(len(s.PlaneOps), 8*int(numCauses))
	for i := 0; i < len(raw)/8; i++ {
		s.PlaneOps[i/int(numCauses)][i%int(numCauses)] = int64(binary.LittleEndian.Uint64(raw[8*i:]))
	}
	ckpt.SlabInto(r, s.BlockErases)
	s.WastedPages = r.I64()
}
