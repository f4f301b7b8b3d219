package ssd

import (
	"bytes"
	"testing"
)

// FuzzRestoreCheckpoint feeds Restore damaged checkpoints. Each input picks
// a tiny preconditioned DLOOP, FAST, or BAST checkpoint, overwrites part of
// its payload, and re-seals the checksum so the damage reaches the decoders
// instead of stopping at the container check. Restore must never panic; an
// error is fine. When it accepts the damaged state, encoding that state must
// be stable: Snapshot → Restore → Snapshot reproduces the same bytes.
//
// The seed corpus runs with the ordinary tests; explore further with
//
//	go test -run '^$' -fuzz FuzzRestoreCheckpoint -fuzztime 30s ./internal/ssd
func FuzzRestoreCheckpoint(f *testing.F) {
	schemes := []string{SchemeDLOOP, SchemeFAST, SchemeBAST}
	ctrls := make([]*Controller, len(schemes))
	cps := make([][]byte, len(schemes))
	for i, scheme := range schemes {
		c, err := Build(tinyConfig(scheme))
		if err != nil {
			f.Fatal(err)
		}
		f.Cleanup(c.Close)
		capBytes := int64(c.Capacity()) * int64(c.Geometry().PageSize)
		if err := c.PreconditionBytes(capBytes * 3 / 4); err != nil {
			f.Fatal(err)
		}
		ctrls[i], cps[i] = c, encodedCheckpoint(f, c)
	}
	for i := 0; i < 48; i++ {
		f.Add(uint8(i), uint32(i*1031), []byte{0xff, 0xff, 0xff, 0xff})
		f.Add(uint8(i), uint32(i*7919+5), []byte{1, 0, 0, 0})
	}
	f.Add(uint8(0), uint32(0), []byte{})
	f.Fuzz(func(t *testing.T, pick uint8, off uint32, patch []byte) {
		i := int(pick) % len(schemes)
		c := ctrls[i]
		payload := len(cps[i]) - containerHeader
		at := int(off % uint32(payload))
		if len(patch) > payload-at {
			patch = patch[:payload-at]
		}
		bad := resealed(cps[i], func(p []byte) { copy(p[at:], patch) })
		if err := c.Restore(bad); err != nil {
			return
		}
		first := encodedCheckpoint(t, c)
		if err := c.Restore(first); err != nil {
			t.Fatalf("%s: restoring a snapshot of accepted state: %v", schemes[i], err)
		}
		if second := encodedCheckpoint(t, c); !bytes.Equal(first, second) {
			t.Fatalf("%s: Snapshot → Restore → Snapshot changed the bytes", schemes[i])
		}
	})
}
