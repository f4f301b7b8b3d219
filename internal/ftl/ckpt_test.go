package ftl

import (
	"testing"

	"dloop/internal/ckpt"
	"dloop/internal/flash"
)

// TestCheckTags pins the range CheckTags accepts for a page's stored tag:
// no data, a data LPN below the capacity, or a translation page below the
// translation-page count, each up to its last valid value and no further.
func TestCheckTags(t *testing.T) {
	const capacity, transPages = LPN(40), 3
	for _, tc := range []struct {
		tag int64
		ok  bool
	}{
		{0, true},
		{int64(capacity) - 1, true},
		{EncodeTrans(0), true},
		{EncodeTrans(transPages - 1), true},
		{int64(capacity), false},
		{-2, false},
		{EncodeTrans(transPages), false},
		{EncodeTrans(-1), false},
	} {
		dev, err := flash.NewDevice(testGeo(), flash.DefaultTiming())
		if err != nil {
			t.Fatal(err)
		}
		if _, err := dev.WritePage(0, tc.tag, 0, flash.CauseHost); err != nil {
			t.Fatal(err)
		}
		var r ckpt.Reader
		CheckTags(&r, dev, capacity, transPages)
		if got := r.Err() == nil; got != tc.ok {
			t.Errorf("tag %d: accepted %v, want %v (err %v)", tc.tag, got, tc.ok, r.Err())
		}
	}
}
