package pagemap

import (
	"fmt"

	"dloop/internal/ckpt"
	"dloop/internal/flash"
	"dloop/internal/ftl"
	"dloop/internal/ftl/gc"
)

// EncodeState appends a PureMap Snapshot (the any returned by Snapshot) to w.
func EncodeState(w *ckpt.Writer, snap any) error {
	s, ok := snap.(*state)
	if !ok {
		return fmt.Errorf("pagemap: foreign snapshot %T", snap)
	}
	w.U32(uint32(len(s.table)))
	for _, p := range s.table {
		w.I64(int64(p))
	}
	ftl.EncodeFreeBlocksState(w, s.pool)
	ftl.EncodeTrackerState(w, s.tracker)
	w.U32(uint32(len(s.cur)))
	for _, wp := range s.cur {
		w.Int(wp.pb.Plane)
		w.Int(wp.pb.Block)
		w.Int(wp.next)
		w.Bool(wp.active)
	}
	gc.EncodeState(w, s.engine)
	return nil
}

// DecodeState reads a snapshot written by EncodeState, in the form
// PureMap.Restore accepts.
func DecodeState(r *ckpt.Reader) any {
	s := &state{}
	n := r.Count(8)
	if r.Err() != nil {
		return nil
	}
	if n > 0 {
		s.table = make([]flash.PPN, n)
		for i := range s.table {
			s.table[i] = flash.PPN(r.I64())
		}
	}
	s.pool = ftl.DecodeFreeBlocksState(r)
	s.tracker = ftl.DecodeTrackerState(r)
	nc := r.Count(25) // writePoint: three Ints, one Bool
	if r.Err() != nil {
		return nil
	}
	s.cur = make([]writePoint, nc)
	for i := range s.cur {
		s.cur[i] = writePoint{
			pb:     flash.PlaneBlock{Plane: r.Int(), Block: r.Int()},
			next:   r.Int(),
			active: r.Bool(),
		}
	}
	s.engine = gc.DecodeState(r)
	return s
}
