package ssd

import (
	"bytes"
	"reflect"
	"strings"
	"testing"

	"dloop/internal/ckpt"
	"dloop/internal/sim"
	"dloop/internal/trace"
)

// TestEncodedCheckpointRoundTrip is the codec acceptance test: for every FTL
// scheme, a warm-up checkpoint encoded to bytes and decoded into a separately
// built controller (a fresh process stand-in) must fork a run bit-identical
// to an uninterrupted fresh run — and re-encoding the decoded checkpoint must
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
			cp, err := donor.Snapshot()
			if err != nil {
				t.Fatal(err)
			}
			data, err := donor.EncodeCheckpoint(cp)
			if err != nil {
				t.Fatal(err)
			}
			again, err := donor.EncodeCheckpoint(cp)
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(data, again) {
				t.Fatal("encoding the same checkpoint twice produced different bytes")
			}

			rec := buildTiny(t, scheme)
			cp2, err := rec.DecodeCheckpoint(data)
			if err != nil {
				t.Fatal(err)
			}
			reenc, err := rec.EncodeCheckpoint(cp2)
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(data, reenc) {
				t.Fatal("decode(encode(cp)) re-encoded to different bytes")
			}
			if err := rec.Restore(cp2); err != nil {
				t.Fatal(err)
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
			cp, err := donor.Snapshot()
			if err != nil {
				t.Fatal(err)
			}
			data, err := donor.EncodeCheckpoint(cp)
			if err != nil {
				t.Fatal(err)
			}
			rec := buildMQ(t, cfg)
			cp2, err := rec.DecodeCheckpoint(data)
			if err != nil {
				t.Fatal(err)
			}
			if err := rec.Restore(cp2); err != nil {
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
	cp, err := donor.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	data, err := donor.EncodeCheckpoint(cp)
	if err != nil {
		t.Fatal(err)
	}
	want, err := donor.Run(trace.NewSliceReader(w))
	if err != nil {
		t.Fatal(err)
	}
	rec := build()
	cp2, err := rec.DecodeCheckpoint(data)
	if err != nil {
		t.Fatal(err)
	}
	if err := rec.Restore(cp2); err != nil {
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
// loudly instead of restoring corrupt state.
func TestDecodeCheckpointRejects(t *testing.T) {
	donor := buildTiny(t, SchemeDLOOP)
	preconditionTiny(t, donor)
	cp, err := donor.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	data, err := donor.EncodeCheckpoint(cp)
	if err != nil {
		t.Fatal(err)
	}

	wrongScheme := buildTiny(t, SchemeDFTL)
	if _, err := wrongScheme.DecodeCheckpoint(data); err == nil ||
		!strings.Contains(err.Error(), "controller runs") {
		t.Fatalf("foreign-scheme checkpoint accepted: %v", err)
	}

	cfg := tinyConfig(SchemeDLOOP)
	cfg.CMTEntries = 128 // same scheme and geometry, different configuration
	wrongCfg, err := Build(cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(wrongCfg.Close)
	if _, err := wrongCfg.DecodeCheckpoint(data); err == nil ||
		!strings.Contains(err.Error(), "different configuration") {
		t.Fatalf("foreign-config checkpoint accepted: %v", err)
	}

	if _, err := donor.DecodeCheckpoint(data[:len(data)-16]); err == nil {
		t.Fatal("truncated checkpoint accepted")
	}
	flipped := append([]byte(nil), data...)
	flipped[len(flipped)/2] ^= 0x40
	if _, err := donor.DecodeCheckpoint(flipped); err == nil {
		t.Fatal("bit-flipped checkpoint accepted")
	}
	bumped := append([]byte(nil), data...)
	bumped[4]++ // container format version
	if _, err := donor.DecodeCheckpoint(bumped); err == nil ||
		!strings.Contains(err.Error(), "version") {
		t.Fatalf("future-version checkpoint accepted: %v", err)
	}
	// The original must still decode after all that.
	if _, err := donor.DecodeCheckpoint(data); err != nil {
		t.Fatal(err)
	}
}

// benchCheckpoint builds one preconditioned paper-shape controller and its
// snapshot for the codec benchmarks.
func benchCheckpoint(b *testing.B) (*Controller, *Checkpoint) {
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

func BenchmarkCheckpointEncode(b *testing.B) {
	c, cp := benchCheckpoint(b)
	data, err := c.EncodeCheckpoint(cp)
	if err != nil {
		b.Fatal(err)
	}
	b.SetBytes(int64(len(data)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		w := ckpt.NewWriter()
		if _, err := c.AppendCheckpoint(w, cp); err != nil {
			b.Fatal(err)
		}
		ckpt.PutWriter(w)
	}
}

func BenchmarkCheckpointDecode(b *testing.B) {
	c, cp := benchCheckpoint(b)
	data, err := c.EncodeCheckpoint(cp)
	if err != nil {
		b.Fatal(err)
	}
	b.SetBytes(int64(len(data)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := c.DecodeCheckpoint(data); err != nil {
			b.Fatal(err)
		}
	}
}
