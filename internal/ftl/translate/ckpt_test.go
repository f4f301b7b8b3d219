package translate

import (
	"runtime"
	"testing"

	"dloop/internal/ckpt"
)

// TestDecodeStateBoundsLengthPrefix feeds an engine's Decode a 4-byte
// unchecked payload claiming a mapping table of 1<<24 entries (128 MiB)
// with nothing behind it. The count must fail the bounded length read, and
// nothing may be sized from it.
func TestDecodeStateBoundsLengthPrefix(t *testing.T) {
	m, _, _ := newTestEngine(t, 4, PolicySLRU)
	payload := []byte{0, 0, 0, 1} // little-endian slab count 0x01000000
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	r := ckpt.NewReader(payload)
	m.Decode(r)
	runtime.ReadMemStats(&after)
	if r.Err() == nil {
		t.Fatal("truncated payload decoded without error")
	}
	if got := after.TotalAlloc - before.TotalAlloc; got >= 1<<20 {
		t.Fatalf("decoding allocated %d bytes, want < 1 MiB", got)
	}
}
