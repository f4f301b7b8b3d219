package bast

import (
	"testing"

	"dloop/internal/ckpt"
	"dloop/internal/ftl"
	"dloop/internal/sim"
)

// TestDecodeRejectsRepeatedLog seals a state whose log allocation order
// names one open log block twice in place of two different ones. Decoding
// it used to succeed; the merge of that log then cleared its slot but left
// the second entry, and the next eviction dereferenced the empty slot.
func TestDecodeRejectsRepeatedLog(t *testing.T) {
	f, _ := newTestFTL(t, Config{})
	var at sim.Time
	for _, lpn := range []ftl.LPN{0, 1, 8, 9, 1, 9} { // updates open logs for lbns 0 and 1
		end, err := f.WritePage(lpn, at)
		if err != nil {
			t.Fatal(err)
		}
		at = end
	}
	if len(f.logOrder) != 2 {
		t.Fatalf("%d logs open, want 2", len(f.logOrder))
	}
	seal := func() []byte {
		w := ckpt.NewWriter(0)
		f.EncodeState(w)
		return append([]byte(nil), w.Seal()...)
	}
	decode := func(data []byte) error {
		var r ckpt.Reader
		if err := r.Open(data); err != nil {
			t.Fatal(err)
		}
		f.DecodeState(&r)
		return r.Err()
	}
	good := seal()
	order := f.logOrder
	f.logOrder = []int64{order[0], order[0]}
	bad := seal()
	f.logOrder = order
	if err := decode(bad); err == nil {
		t.Fatal("allocation order naming one log twice decoded without error")
	}
	if err := decode(good); err != nil {
		t.Fatalf("good state after a rejected one: %v", err)
	}
}
