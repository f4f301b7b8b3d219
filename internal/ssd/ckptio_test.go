package ssd

import (
	"bytes"
	"encoding/binary"
	"hash/crc32"
	"reflect"
	"strings"
	"testing"

	"dloop/internal/flash"
	"dloop/internal/ftl"
	"dloop/internal/sim"
	"dloop/internal/trace"
)

// TestEncodedCheckpointRoundTrip is the codec acceptance test: for every FTL
// scheme, a warm-up checkpoint restored into a separately built controller
// (a fresh process stand-in) must fork a run bit-identical to an
// uninterrupted fresh run — and snapshotting the restored controller must
// reproduce the original container byte for byte.
func TestEncodedCheckpointRoundTrip(t *testing.T) {
	schemes := []string{SchemeDLOOP, SchemeDFTL, SchemeFAST, SchemeBAST,
		SchemePureMap, SchemePureMapStriped}
	for _, scheme := range schemes {
		t.Run(scheme, func(t *testing.T) {
			fresh := buildTiny(t, scheme)
			preconditionTiny(t, fresh)
			w := tinyWorkload(t, fresh, 1500, 31)
			want, err := fresh.Run(trace.NewSliceReader(w))
			if err != nil {
				t.Fatal(err)
			}

			donor := buildTiny(t, scheme)
			preconditionTiny(t, donor)
			data := encodedCheckpoint(t, donor)
			if again := encodedCheckpoint(t, donor); !bytes.Equal(data, again) {
				t.Fatal("encoding the same state twice produced different bytes")
			}

			rec := buildTiny(t, scheme)
			if err := rec.Restore(data); err != nil {
				t.Fatal(err)
			}
			if reenc := encodedCheckpoint(t, rec); !bytes.Equal(data, reenc) {
				t.Fatal("restored controller re-encoded to different bytes")
			}
			got, err := rec.Run(trace.NewSliceReader(w))
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("run forked from decoded checkpoint differs:\n got %+v\nwant %+v", got, want)
			}
		})
	}
}

// TestEncodedCheckpointRoundTripMQ covers the multi-queue layout: per-shard
// device states, FTL states, and accumulators all round-trip through bytes.
func TestEncodedCheckpointRoundTripMQ(t *testing.T) {
	for _, scheme := range []string{SchemeDLOOP, SchemeFAST} {
		t.Run(scheme, func(t *testing.T) {
			cfg := mqConfig(scheme, tiny8Geometry(), 2, "")
			fresh := buildMQ(t, cfg)
			preconditionTiny(t, fresh)
			w := tinyWorkload(t, fresh, 1500, 33)
			want, err := fresh.Run(trace.NewSliceReader(w))
			if err != nil {
				t.Fatal(err)
			}

			donor := buildMQ(t, cfg)
			preconditionTiny(t, donor)
			data := encodedCheckpoint(t, donor)
			rec := buildMQ(t, cfg)
			if err := rec.Restore(data); err != nil {
				t.Fatal(err)
			}
			got, err := rec.Run(trace.NewSliceReader(w))
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("MQ run forked from decoded checkpoint differs:\n got %+v\nwant %+v", got, want)
			}
		})
	}
}

// TestEncodedCheckpointWithBufferAndSeries reaches the controller state the
// plain round trip does not: the DRAM write buffer and the time series.
func TestEncodedCheckpointWithBufferAndSeries(t *testing.T) {
	build := func() *Controller {
		cfg := tinyConfig(SchemeDLOOP)
		cfg.BufferPages = 16
		c, err := Build(cfg)
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(c.Close)
		if err := c.EnableTimeSeries(1 * sim.Second); err != nil {
			t.Fatal(err)
		}
		preconditionTiny(t, c)
		return c
	}
	donor := build()
	w := tinyWorkload(t, donor, 1500, 35)
	data := encodedCheckpoint(t, donor)
	want, err := donor.Run(trace.NewSliceReader(w))
	if err != nil {
		t.Fatal(err)
	}
	rec := build()
	if err := rec.Restore(data); err != nil {
		t.Fatal(err)
	}
	got, err := rec.Run(trace.NewSliceReader(w))
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("buffered run forked from decoded checkpoint differs:\n got %+v\nwant %+v", got, want)
	}
	if rec.TimeSeries().Buckets() != donor.TimeSeries().Buckets() {
		t.Fatalf("series buckets %d, want %d", rec.TimeSeries().Buckets(), donor.TimeSeries().Buckets())
	}
}

// TestDecodeCheckpointRejects feeds a valid container to the wrong
// controllers and damaged containers to the right one; every case must fail
// loudly instead of restoring corrupt state, and a checkpoint rejected by
// the header checks must leave the controller untouched.
func TestDecodeCheckpointRejects(t *testing.T) {
	donor := buildTiny(t, SchemeDLOOP)
	preconditionTiny(t, donor)
	data := encodedCheckpoint(t, donor)

	wrongScheme := buildTiny(t, SchemeDFTL)
	before := encodedCheckpoint(t, wrongScheme)
	if err := wrongScheme.Restore(data); err == nil ||
		!strings.Contains(err.Error(), "controller runs") {
		t.Fatalf("foreign-scheme checkpoint accepted: %v", err)
	}
	if after := encodedCheckpoint(t, wrongScheme); !bytes.Equal(before, after) {
		t.Fatal("rejected foreign-scheme checkpoint changed the controller")
	}

	cfg := tinyConfig(SchemeDLOOP)
	cfg.CMTEntries = 128 // same scheme and geometry, different configuration
	wrongCfg, err := Build(cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(wrongCfg.Close)
	if err := wrongCfg.Restore(data); err == nil ||
		!strings.Contains(err.Error(), "different configuration") {
		t.Fatalf("foreign-config checkpoint accepted: %v", err)
	}

	if err := donor.Restore(data[:len(data)-16]); err == nil {
		t.Fatal("truncated checkpoint accepted")
	}
	flipped := append([]byte(nil), data...)
	flipped[len(flipped)/2] ^= 0x40
	if err := donor.Restore(flipped); err == nil {
		t.Fatal("bit-flipped checkpoint accepted")
	}
	bumped := append([]byte(nil), data...)
	bumped[4]++ // container format version
	if err := donor.Restore(bumped); err == nil ||
		!strings.Contains(err.Error(), "version") {
		t.Fatalf("future-version checkpoint accepted: %v", err)
	}
	// The original must still restore after all that.
	if err := donor.Restore(data); err != nil {
		t.Fatal(err)
	}
}

// containerHeader is the ckpt container header size: magic, version,
// payload length, payload checksum, reserved.
const containerHeader = 24

// resealed returns a copy of a checkpoint container with fn applied to its
// payload and the checksum recomputed, so the damage reaches the decoders
// instead of stopping at the container check.
func resealed(data []byte, fn func(payload []byte)) []byte {
	out := append([]byte(nil), data...)
	fn(out[containerHeader:])
	sum := crc32.Checksum(out[containerHeader:], crc32.MakeTable(crc32.Castagnoli))
	binary.LittleEndian.PutUint32(out[16:20], sum)
	return out
}

// TestRestoreRejectsMisshapenTracker is the regression for a re-sealed
// PureMap checkpoint whose tracker claimed one more invalid-count bucket
// per plane than a block has pages (plus one): restoring it indexed past
// the live bucket array and panicked. It must now fail with an error.
func TestRestoreRejectsMisshapenTracker(t *testing.T) {
	c := buildTiny(t, SchemePureMap)
	preconditionTiny(t, c)
	data := encodedCheckpoint(t, c)
	geo := c.Geometry()
	blocks, buckets := uint32(geo.TotalBlocks()), uint32(geo.PagesPerBlock+1)
	// The tracker encodes its invalid and inBkt slabs (one int32 per block),
	// then the plane count and the first plane's bucket count.
	u32 := func(b []byte, at int) uint32 { return binary.LittleEndian.Uint32(b[at:]) }
	slab := 4 + 4*int(blocks)
	at := -1
	payload := data[containerHeader:]
	for i := 0; i+2*slab+8 <= len(payload); i++ {
		if u32(payload, i) == blocks && u32(payload, i+slab) == blocks &&
			u32(payload, i+2*slab) == uint32(geo.Planes()) && u32(payload, i+2*slab+4) == buckets {
			at = i + 2*slab + 4
			break
		}
	}
	if at < 0 {
		t.Fatal("tracker bucket count not found in the checkpoint")
	}
	bad := resealed(data, func(p []byte) { binary.LittleEndian.PutUint32(p[at:], buckets+1) })
	if err := c.Restore(bad); err == nil {
		t.Fatal("checkpoint with an extra tracker bucket restored without error")
	}
	if err := c.Restore(data); err != nil {
		t.Fatalf("good checkpoint after a rejected one: %v", err)
	}
}

// TestRestoreRejectsBadPageTag re-seals checkpoints in which one valid
// page's stored tag names no logical or translation page of the FTL. Such a
// checkpoint used to restore cleanly, and the first garbage collection of
// that block then indexed the mapping tables out of range. Restore must
// fail instead, for every scheme.
func TestRestoreRejectsBadPageTag(t *testing.T) {
	for _, scheme := range allSchemes {
		t.Run(scheme, func(t *testing.T) {
			c := buildTiny(t, scheme)
			preconditionTiny(t, c)
			data := encodedCheckpoint(t, c)
			ppn := flash.PPN(0)
			for c.dev.PageState(ppn) != flash.PageValid {
				ppn++
			}
			// The OOB tag slab follows the header fields and the page-state
			// slab: one little-endian int64 per page.
			pages := int(c.Geometry().TotalPages())
			at := 4 + len(scheme) + 32 + 8*8 + 1 + 4 + pages + 4 + 8*int(ppn)
			if got := int64(binary.LittleEndian.Uint64(data[containerHeader+at:])); got != c.dev.PageLPN(ppn) {
				t.Fatalf("tag of page %d read %d at offset %d, device holds %d", ppn, got, at, c.dev.PageLPN(ppn))
			}
			for _, tag := range []int64{int64(c.Capacity()), -2, ftl.EncodeTrans(1 << 40)} {
				bad := resealed(data, func(p []byte) { binary.LittleEndian.PutUint64(p[at:], uint64(tag)) })
				if err := c.Restore(bad); err == nil {
					t.Fatalf("page %d tagged %d restored without error", ppn, tag)
				}
			}
			if err := c.Restore(data); err != nil {
				t.Fatalf("good checkpoint after a rejected one: %v", err)
			}
		})
	}
}

// TestRestoreAllocFree pins the fork path's cost: restoring a checkpoint
// from bytes into a built controller that has restored it before allocates
// nothing, on the single-FTL engine and on the multi-queue front end.
func TestRestoreAllocFree(t *testing.T) {
	for _, cfg := range []Config{
		tinyConfig(SchemeDLOOP),
		mqConfig(SchemeDLOOP, tiny8Geometry(), 2, ""),
	} {
		c, err := Build(cfg)
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(c.Close)
		preconditionTiny(t, c)
		if _, err := c.Run(trace.NewSliceReader(tinyWorkload(t, c, 800, 37))); err != nil {
			t.Fatal(err)
		}
		data := encodedCheckpoint(t, c)
		allocs := testing.AllocsPerRun(20, func() {
			if err := c.Restore(data); err != nil {
				t.Fatal(err)
			}
		})
		if allocs != 0 {
			t.Errorf("%d shards: Restore made %v allocations, want 0", cfg.FTLShards, allocs)
		}
	}
}

// encodedCheckpoint returns the sealed checkpoint container for c's current
// state.
func encodedCheckpoint(t testing.TB, c *Controller) []byte {
	t.Helper()
	cp, err := c.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	return cp
}

// benchCheckpoint builds one preconditioned paper-shape controller and its
// checkpoint for the codec benchmarks.
func benchCheckpoint(b *testing.B) (*Controller, Checkpoint) {
	b.Helper()
	cfg := tinyConfig(SchemeDLOOP)
	c, err := Build(cfg)
	if err != nil {
		b.Fatal(err)
	}
	b.Cleanup(c.Close)
	capBytes := int64(c.Capacity()) * int64(c.Geometry().PageSize)
	if err := c.PreconditionBytes(capBytes * 3 / 4); err != nil {
		b.Fatal(err)
	}
	cp, err := c.Snapshot()
	if err != nil {
		b.Fatal(err)
	}
	return c, cp
}

// BenchmarkCheckpointEncode measures Snapshot: encoding the live controller
// into a new checkpoint.
func BenchmarkCheckpointEncode(b *testing.B) {
	c, cp := benchCheckpoint(b)
	b.SetBytes(int64(len(cp)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := c.Snapshot(); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkCheckpointDecode measures Restore from bytes: validating the
// container and decoding it into the built controller.
func BenchmarkCheckpointDecode(b *testing.B) {
	c, cp := benchCheckpoint(b)
	b.SetBytes(int64(len(cp)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := c.Restore(cp); err != nil {
			b.Fatal(err)
		}
	}
}
