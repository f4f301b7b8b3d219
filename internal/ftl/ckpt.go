package ftl

import (
	"dloop/internal/ckpt"
	"dloop/internal/flash"
)

// Encode appends the pool to w: one length-prefixed block-index slab per
// plane, linearized in queue order (so the encoding is independent of the
// ring layout), then the total.
func (f *FreeBlocks) Encode(w *ckpt.Writer) {
	w.U32(uint32(len(f.planes)))
	for p := range f.planes {
		q := &f.planes[p]
		w.U32(uint32(q.n))
		for i := 0; i < q.n; i++ {
			j := q.head + i
			if j >= len(q.buf) {
				j -= len(q.buf)
			}
			w.Int(q.buf[j])
		}
	}
	w.Int(f.total)
}

// Decode overwrites the pool with one written by Encode, reusing the live
// ring buffers. The plane count must match, no plane may hold more blocks
// than it has or name a block it does not have, and the total must be the
// sum of the planes.
func (f *FreeBlocks) Decode(r *ckpt.Reader) {
	if n := r.Count(4); n != len(f.planes) { // per-plane Ints slab
		r.Failf("ftl: free pool has %d planes, live pool %d", n, len(f.planes))
		return
	}
	sum := 0
	for p := range f.planes {
		q := &f.planes[p]
		blocks := r.AppendInts(q.buf[:0], len(q.buf))
		for _, b := range blocks {
			if b < 0 || b >= len(q.buf) {
				r.Failf("ftl: free block %d outside plane %d", b, p)
				return
			}
		}
		q.head, q.n = 0, len(blocks)
		sum += q.n
	}
	if f.total = r.Int(); f.total != sum {
		r.Failf("ftl: free pool total %d, planes hold %d", f.total, sum)
	}
}

// Encode appends the tracker to w. The bucket index is a plane-major ragged
// array; each per-count bucket goes out as its own length-prefixed slab so
// empty buckets cost four bytes.
func (t *Tracker) Encode(w *ckpt.Writer) {
	ckpt.PutSlab(w, t.invalid)
	ckpt.PutSlab(w, t.inBkt)
	w.U32(uint32(len(t.buckets)))
	for _, bkts := range t.buckets {
		w.U32(uint32(len(bkts)))
		for _, bkt := range bkts {
			ckpt.PutSlab(w, bkt)
		}
	}
	w.Ints(t.maxCount)
	ckpt.PutSlab(w, t.closeSeq)
	w.I64(t.seq)
}

// Decode overwrites the tracker with one written by Encode, reusing the live
// slices. Beyond matching every slab length and bucket shape, it checks
// that the candidate index is self-consistent — each bucket member is a
// block of its plane whose position and invalid count name that very slot,
// and no other block claims candidacy — so the O(1) bucket moves that
// follow can never index out of range.
func (t *Tracker) Decode(r *ckpt.Reader) {
	ckpt.SlabInto(r, t.invalid)
	ckpt.SlabInto(r, t.inBkt)
	if n := r.Count(4); n != len(t.buckets) { // per-plane bucket count
		r.Failf("ftl: tracker has %d planes, live tracker %d", n, len(t.buckets))
		return
	}
	for _, bkts := range t.buckets {
		if n := r.Count(4); n != len(bkts) { // per-count I32s slab
			r.Failf("ftl: tracker plane has %d buckets, live tracker %d", n, len(bkts))
			return
		}
		for c := range bkts {
			bkts[c] = r.AppendI32s(bkts[c][:0], t.geo.BlocksPerPlane)
		}
	}
	r.IntsInto(t.maxCount)
	ckpt.SlabInto(r, t.closeSeq)
	t.seq = r.I64()
	if r.Err() == nil {
		t.check(r)
	}
}

// check validates a decoded candidate index (see Decode).
func (t *Tracker) check(r *ckpt.Reader) {
	ppb := t.geo.PagesPerBlock
	for bi, v := range t.invalid {
		if v < 0 || int(v) > ppb {
			r.Failf("ftl: block %d has %d invalid pages of %d", bi, v, ppb)
			return
		}
	}
	members := 0
	for p, bkts := range t.buckets {
		for c, bkt := range bkts {
			for i, b := range bkt {
				pb := flash.PlaneBlock{Plane: p, Block: int(b)}
				if !t.geo.ValidBlock(pb) {
					r.Failf("ftl: tracker candidate %v outside the device", pb)
					return
				}
				if bi := t.geo.BlockIndex(pb); t.inBkt[bi] != int32(i) || int(t.invalid[bi]) != c {
					r.Failf("ftl: tracker candidate %v misfiled in bucket %d slot %d", pb, c, i)
					return
				}
			}
			members += len(bkt)
		}
	}
	for bi, pos := range t.inBkt {
		if pos >= 0 {
			members--
		} else if pos != -1 {
			r.Failf("ftl: block %d has bucket position %d", bi, pos)
			return
		}
	}
	if members != 0 {
		r.Failf("ftl: tracker bucket membership and positions disagree")
		return
	}
	for p, m := range t.maxCount {
		if m < 0 || m > ppb {
			r.Failf("ftl: plane %d max invalid count %d of %d", p, m, ppb)
			return
		}
	}
}

// EncodeBlock appends a block address as two Ints.
func EncodeBlock(w *ckpt.Writer, pb flash.PlaneBlock) {
	w.Int(pb.Plane)
	w.Int(pb.Block)
}

// DecodeBlock reads a block address written by EncodeBlock, failing r unless
// geo has that block.
func DecodeBlock(r *ckpt.Reader, geo flash.Geometry) flash.PlaneBlock {
	pb := flash.PlaneBlock{Plane: r.Int(), Block: r.Int()}
	if !geo.ValidBlock(pb) {
		r.Failf("ftl: block %v outside the device", pb)
		return flash.PlaneBlock{}
	}
	return pb
}

// DecodeOffset reads an int page offset that may range over a whole block,
// 0 through PagesPerBlock inclusive (a full block's next-page cursor),
// failing r otherwise.
func DecodeOffset(r *ckpt.Reader, geo flash.Geometry) int {
	v := r.Int()
	if v < 0 || v > geo.PagesPerBlock {
		r.Failf("ftl: page offset %d outside a %d-page block", v, geo.PagesPerBlock)
		return 0
	}
	return v
}

// CheckTags fails r unless every page's stored tag on dev (see EncodeTrans)
// is -1, a data LPN below capacity, or a translation-page tag below
// transPages. Garbage collection and crash recovery read these tags back
// and index the FTL's tables with them. dev must already be decoded.
func CheckTags(r *ckpt.Reader, dev *flash.Device, capacity LPN, transPages int) {
	n := flash.PPN(dev.Geometry().TotalPages())
	for p := flash.PPN(0); p < n; p++ {
		s := dev.PageLPN(p)
		if s == -1 || uint64(s) < uint64(capacity) ||
			IsTrans(s) && DecodeTrans(s) < int64(transPages) {
			continue
		}
		r.Failf("ftl: page %d holds tag %d outside %d pages and %d translation pages", p, s, capacity, transPages)
		return
	}
}

// CheckPPNs fails r unless every entry of s is InvalidPPN or a page of geo.
func CheckPPNs(r *ckpt.Reader, s []flash.PPN, geo flash.Geometry, what string) {
	total := uint64(geo.TotalPages())
	for i, p := range s {
		if uint64(p-flash.InvalidPPN) > total { // InvalidPPN is -1: one compare covers both
			r.Failf("ftl: %s[%d] = ppn %d outside the device", what, i, p)
			return
		}
	}
}
