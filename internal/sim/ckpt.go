package sim

import "dloop/internal/ckpt"

// Encode appends the resource's timeline to w. Layout: solidUntil, busyFor,
// ops, then the live intervals as a length-prefixed slab of (start, end)
// int64 pairs.
func (r *Resource) Encode(w *ckpt.Writer) {
	w.I64(int64(r.solidUntil))
	w.I64(int64(r.busyFor))
	w.I64(r.ops)
	live := r.live()
	w.U32(uint32(len(live)))
	for _, iv := range live {
		w.I64(int64(iv.start))
		w.I64(int64(iv.end))
	}
}

// Decode overwrites the resource's timeline with one written by Encode,
// reusing the backing array, so restoring into a resource that has reached
// its high-water capacity allocates nothing. A window longer than the
// retention bound, or intervals that are empty, overlapping, or older than
// solidUntil, fail rd.
func (r *Resource) Decode(rd *ckpt.Reader) {
	r.solidUntil = Time(rd.I64())
	r.busyFor = Duration(rd.I64())
	r.ops = rd.I64()
	n := rd.Len(16, retainIntervals) // interval: start, end
	r.buf = r.buf[:0]
	r.head = 0
	prev := r.solidUntil
	for i := 0; i < n; i++ {
		iv := interval{start: Time(rd.I64()), end: Time(rd.I64())}
		if iv.start < prev || iv.end <= iv.start {
			rd.Failf("sim: %s: interval %d [%d, %d) out of order", r.name, i, iv.start, iv.end)
			return
		}
		prev = iv.end
		r.buf = append(r.buf, iv)
	}
}
