package translate

import (
	"runtime"
	"testing"

	"dloop/internal/ckpt"
)

// TestDecodeStateBoundsLengthPrefix feeds DecodeState a 16-byte unchecked
// payload: an empty table, a cache size, and a slab count of 1<<24 entries
// (640 MiB) with no entries behind it. The count must fail the bounded
// length read before anything is sized from it.
func TestDecodeStateBoundsLengthPrefix(t *testing.T) {
	payload := make([]byte, 16)
	payload[15] = 1 // little-endian slab count 0x01000000
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	r := ckpt.NewReader(payload)
	DecodeState(r)
	runtime.ReadMemStats(&after)
	if r.Err() == nil {
		t.Fatal("truncated payload decoded without error")
	}
	if got := after.TotalAlloc - before.TotalAlloc; got >= 1<<20 {
		t.Fatalf("decoding allocated %d bytes, want < 1 MiB", got)
	}
}
