package sim

import "dloop/internal/ckpt"

// EncodeResourceState appends a ResourceState to w. Layout: solidUntil,
// busyFor, ops, then the live intervals as a length-prefixed slab of
// (start, end) int64 pairs.
func EncodeResourceState(w *ckpt.Writer, s ResourceState) {
	w.I64(int64(s.solidUntil))
	w.I64(int64(s.busyFor))
	w.I64(s.ops)
	w.U32(uint32(len(s.live)))
	for _, iv := range s.live {
		w.I64(int64(iv.start))
		w.I64(int64(iv.end))
	}
}

// DecodeResourceState reads a ResourceState written by EncodeResourceState.
func DecodeResourceState(r *ckpt.Reader) ResourceState {
	s := ResourceState{
		solidUntil: Time(r.I64()),
		busyFor:    Duration(r.I64()),
		ops:        r.I64(),
	}
	n := r.Count(16) // interval: start, end
	if r.Err() != nil {
		return ResourceState{}
	}
	if n > 0 {
		s.live = make([]interval, n)
		for i := range s.live {
			s.live[i].start = Time(r.I64())
			s.live[i].end = Time(r.I64())
		}
	}
	return s
}
