package ssd

import (
	"crypto/sha256"
	"fmt"
	"sort"

	"dloop/internal/ckpt"
	"dloop/internal/flash"
	"dloop/internal/ftl"
	"dloop/internal/sim"
	"dloop/internal/stats"
)

// Checkpoint is a controller's complete simulation state — flash device(s),
// FTL(s), write buffer, and measurement accumulators — as one sealed,
// versioned container (see internal/ckpt). It is the only checkpoint
// representation: Snapshot encodes it straight from the live structures,
// Restore decodes it straight back into them, and the warm-up cache writes
// the same bytes to disk. The bytes are never modified, so one checkpoint
// taken after a shared warm-up can seed any number of forks, concurrently,
// each bit-identical to an uninterrupted fresh run of the same cell.
//
// Layout: scheme name, ConfigDigest, geometry, then the single-FTL device
// and FTL state or, on a front-end controller, one device/FTL pair per
// shard, then the controller's accumulators and write buffer.
//
// The attached observability recorder is deliberately NOT part of the
// checkpoint: recorders are per-cell plumbing, attached after a restore and
// detached before the next one.
type Checkpoint []byte

// Snapshot folds any deferred completions and encodes the controller's
// state into a new checkpoint.
func (c *Controller) Snapshot() (Checkpoint, error) {
	if c.fe != nil {
		c.fe.flush(c) // barriers and folds first
		if c.fe.err != nil {
			return nil, c.fe.err
		}
	} else {
		c.Flush() // fold deferred completions so the accumulators are current
	}
	// Page states and OOB tags take 9 bytes a page and a page-mapped FTL's
	// table 8 more, most of a checkpoint: start there, so a large device
	// encodes with a buffer growth or two instead of a dozen.
	w := ckpt.NewWriter(17 * int(c.Geometry().TotalPages()))
	w.String(c.cfg.FTL)
	copy(w.Raw(sha256.Size), c.configDigest())
	encodeGeometry(w, c.Geometry())
	w.Bool(c.fe != nil)
	if c.fe != nil {
		w.U32(uint32(len(c.fe.shards)))
		for _, sh := range c.fe.shards {
			sh.dev.Encode(w)
			sh.f.EncodeState(w)
		}
	} else {
		c.dev.Encode(w)
		c.f.EncodeState(w)
	}
	c.resp.Encode(w)
	c.readResp.Encode(w)
	c.writeResp.Encode(w)
	c.hist.Encode(w)
	stats.EncodeTimeSeries(w, c.series)
	w.Bool(c.buffer != nil)
	if c.buffer != nil {
		c.buffer.encode(w)
	}
	w.I64(int64(c.lastDone))
	w.I64(c.served)
	w.I64(c.pagesRead)
	w.I64(c.pagesWrit)
	return Checkpoint(w.Seal()), nil
}

// Restore rewinds the controller to a checkpoint taken from an identically
// configured controller. It first validates the container (magic, version,
// checksum), the FTL scheme, the ConfigDigest, the geometry, and the shard
// layout without touching live state, so a checkpoint from any other
// configuration fails cleanly. It then decodes straight into the slices the
// controller already owns, allocating nothing once they have reached their
// working size. Every slab is checked against the live structure it lands
// in; if one does not fit, Restore fails with the controller partly
// overwritten, and the caller must discard it or Restore a good checkpoint
// before using it again. cp itself is only read.
func (c *Controller) Restore(cp Checkpoint) error {
	r := &c.rd
	defer func() { *r = ckpt.Reader{} }() // drop the reference to cp
	if err := r.Open(cp); err != nil {
		return err
	}
	scheme := r.Bytes()
	digest := r.Raw(sha256.Size)
	geo := decodeGeometry(r)
	hasFE := r.Bool()
	shards := 0
	if hasFE {
		shards = r.Count(1)
	}
	if err := r.Err(); err != nil {
		return err
	}
	if string(scheme) != c.cfg.FTL {
		return fmt.Errorf("ssd: checkpoint holds %s state, controller runs %s", scheme, c.cfg.FTL)
	}
	if string(digest) != string(c.configDigest()) {
		return fmt.Errorf("ssd: checkpoint was taken under a different configuration")
	}
	if geo != c.Geometry() {
		return fmt.Errorf("ssd: checkpoint geometry %v does not match device %v", geo, c.Geometry())
	}
	if hasFE != (c.fe != nil) {
		return fmt.Errorf("ssd: checkpoint front-end layout does not match controller")
	}
	if hasFE && shards != len(c.fe.shards) {
		return fmt.Errorf("ssd: checkpoint has %d FTL shards, controller %d", shards, len(c.fe.shards))
	}

	// Validated: from here on decoding overwrites live state.
	if c.fe != nil {
		c.fe.discard() // in-flight work belongs to the run being abandoned
		for _, sh := range c.fe.shards {
			sh.dev.Decode(r)
			sh.f.DecodeState(r)
		}
	} else {
		c.dev.Decode(r)
		c.f.DecodeState(r)
	}
	c.resp.Decode(r)
	c.readResp.Decode(r)
	c.writeResp.Decode(r)
	c.hist.Decode(r)
	c.series = stats.DecodeTimeSeries(r, c.series)
	if r.Bool() != (c.buffer != nil) {
		r.Failf("ssd: checkpoint write-buffer layout does not match controller")
	} else if c.buffer != nil {
		c.buffer.decode(r, c.Capacity())
	}
	c.lastDone = sim.Time(r.I64())
	c.served = r.I64()
	c.pagesRead = r.I64()
	c.pagesWrit = r.I64()
	if err := r.Err(); err != nil {
		return fmt.Errorf("ssd: restore %s checkpoint: %w", c.cfg.FTL, err)
	}
	if n := r.Remaining(); n != 0 {
		return fmt.Errorf("ssd: restore %s checkpoint: %d trailing bytes", c.cfg.FTL, n)
	}
	return nil
}

// configDigest returns ConfigDigest(c.cfg), computing it on first use.
func (c *Controller) configDigest() []byte {
	if !c.hasDigest {
		c.digest, c.hasDigest = ConfigDigest(c.cfg), true
	}
	return c.digest[:]
}

func encodeGeometry(w *ckpt.Writer, g flash.Geometry) {
	w.Int(g.Channels)
	w.Int(g.PackagesPerChannel)
	w.Int(g.ChipsPerPackage)
	w.Int(g.DiesPerChip)
	w.Int(g.PlanesPerDie)
	w.Int(g.BlocksPerPlane)
	w.Int(g.PagesPerBlock)
	w.Int(g.PageSize)
}

func decodeGeometry(r *ckpt.Reader) flash.Geometry {
	return flash.Geometry{
		Channels:           r.Int(),
		PackagesPerChannel: r.Int(),
		ChipsPerPackage:    r.Int(),
		DiesPerChip:        r.Int(),
		PlanesPerDie:       r.Int(),
		BlocksPerPlane:     r.Int(),
		PagesPerBlock:      r.Int(),
		PageSize:           r.Int(),
	}
}

// encode writes the DRAM write buffer's state with the dirty map in sorted
// LPN order, so equal buffers encode identically.
func (b *writeBuffer) encode(w *ckpt.Writer) {
	keys := make([]ftl.LPN, 0, len(b.dirty))
	for k := range b.dirty {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(i, j int) bool { return keys[i] < keys[j] })
	w.U32(uint32(len(keys)))
	for _, k := range keys {
		w.I64(int64(k))
		w.Int(b.dirty[k])
	}
	w.Int(b.seq)
	w.U32(uint32(len(b.order)))
	for _, l := range b.order {
		w.I64(int64(l))
	}
	w.I64(b.hitsW)
	w.I64(b.hitsR)
	w.I64(b.flushes)
}

// decode overwrites the buffer with one written by encode, reusing the live
// map and order slice. It holds at most capacity dirty pages, all of them
// (and every queued LPN) within the exported space of size pages.
func (b *writeBuffer) decode(r *ckpt.Reader, pages ftl.LPN) {
	clear(b.dirty)
	n := r.Len(16, b.capacity) // dirty pair: lpn, sequence
	for i := 0; i < n; i++ {
		k := ftl.LPN(r.I64())
		b.dirty[k] = r.Int()
		if k < 0 || k >= pages {
			r.Failf("ssd: buffered lpn %d outside %d pages", k, pages)
			return
		}
	}
	b.seq = r.Int()
	no := r.Count(8)
	b.order = b.order[:0]
	for i := 0; i < no; i++ {
		l := ftl.LPN(r.I64())
		if l < 0 || l >= pages {
			r.Failf("ssd: queued lpn %d outside %d pages", l, pages)
			return
		}
		b.order = append(b.order, l)
	}
	b.hitsW = r.I64()
	b.hitsR = r.I64()
	b.flushes = r.I64()
}
