package sim

// Resource is a hardware unit that serves one operation at a time: a plane's
// cell array, a chip's serial I/O bus, or a channel. It tracks the occupied
// intervals of its recent timeline and places each new operation into the
// earliest gap that fits — the out-of-order dispatch the paper's simulator
// implements with its priority list ("if the targeting channel and plane of
// the request are available, it will be immediately handed to the hardware
// module"). Without backfill, one operation scheduled far in the future
// would burn the idle gap before it and artificially delay every later
// operation.
//
// The occupied intervals live in a sliding window over a reused backing
// array: the live window is buf[head:], appends reuse the array's tail, and
// dropping the oldest interval just advances head. When head grows past the
// retention window the live intervals are copied back to the front, so the
// structure reaches a fixed high-water capacity and then never allocates
// again — the request-serving hot path acquires resources millions of times
// per simulated second and must not churn the heap.
type Resource struct {
	name string
	// solidUntil is the time before which the resource is treated as fully
	// occupied; busy intervals older than the retention window are folded
	// into it. buf[head:] holds disjoint occupied intervals at or after
	// solidUntil, sorted by start.
	solidUntil Time
	buf        []interval
	head       int
	busyFor    Duration
	ops        int64
}

type interval struct {
	start, end Time
}

// retainIntervals bounds the per-resource scheduling window. Operations are
// near-monotone in time, so a short window loses almost no gaps while
// keeping Acquire O(log window) in the common case.
const retainIntervals = 64

// NewResource returns an idle resource with the given diagnostic name.
func NewResource(name string) *Resource {
	return &Resource{name: name}
}

// Name returns the diagnostic name given at construction.
func (r *Resource) Name() string { return r.name }

// live returns the current window of occupied intervals.
func (r *Resource) live() []interval { return r.buf[r.head:] }

// FreeAt returns the time the resource's last scheduled occupation ends —
// the earliest start for an operation that must follow everything scheduled
// so far.
func (r *Resource) FreeAt() Time {
	if n := len(r.buf); n > r.head {
		return r.buf[n-1].end
	}
	return r.solidUntil
}

// BusyTime returns the total simulated time r has spent occupied.
func (r *Resource) BusyTime() Duration { return r.busyFor }

// Ops returns the number of occupations served by r.
func (r *Resource) Ops() int64 { return r.ops }

// Reset returns the resource to idle at time zero and clears statistics.
// The SSD controller uses it to discard preconditioning activity. The
// backing array is kept, so a reset resource stays allocation-free.
func (r *Resource) Reset() {
	r.solidUntil = 0
	r.buf = r.buf[:0]
	r.head = 0
	r.busyFor = 0
	r.ops = 0
}

// fitFrom returns the earliest start >= ready at which a duration d fits
// into r's gaps. Operations are near-monotone in time, so the overwhelmingly
// common case — the request lands at or after the end of the timeline — is
// answered in O(1); backfill searches binary-search into the window instead
// of scanning it.
func (r *Resource) fitFrom(ready Time, d Duration) Time {
	start := ready
	if start < r.solidUntil {
		start = r.solidUntil
	}
	live := r.buf[r.head:]
	n := len(live)
	if n == 0 || start >= live[n-1].end {
		return start
	}
	if start >= live[n-1].start {
		// Inside the tail interval: the timeline is continuously busy up to
		// its end and open afterwards, so the fit is its end — no search.
		return live[n-1].end
	}
	// Find the first interval whose end lies after start: intervals are
	// disjoint and sorted, so ends are sorted too. Earlier intervals can
	// neither contain start nor open a gap at or after it.
	lo, hi := 0, n-1
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if live[mid].end > start {
			hi = mid
		} else {
			lo = mid + 1
		}
	}
	need := start.Add(d)
	// Walk the remaining intervals. Ends are strictly increasing and
	// live[lo].end > start by the search invariant, so after each miss the
	// candidate start is the current interval's end.
	for i := lo; i < n; i++ {
		if need <= live[i].start {
			return start
		}
		start = live[i].end
		need = start.Add(d)
	}
	return start
}

// insert adds an occupied interval, keeping the window sorted, disjoint, and
// coalesced. Appending at the tail (the near-monotone common case) touches
// only the last element.
func (r *Resource) insert(iv interval) {
	live := r.buf[r.head:]
	n := len(live)
	if n == 0 || iv.start > live[n-1].end {
		r.buf = append(r.buf, iv)
	} else if iv.start == live[n-1].end {
		live[n-1].end = iv.end
	} else {
		r.insertSlow(iv)
	}
	r.trim()
}

// insertSlow handles backfill: the interval lands strictly before the tail.
// Chained operation phases usually butt up against an existing interval, so
// the coalescing cases mutate a neighbor in place instead of shifting the
// window.
func (r *Resource) insertSlow(iv interval) {
	// Find the insertion point: iv goes before the first interval whose
	// start exceeds iv.start (buf[head:] is sorted by start and disjoint).
	lo, hi := r.head, len(r.buf)
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if r.buf[mid].start < iv.start {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	pos := lo
	touchL := pos > r.head && r.buf[pos-1].end == iv.start
	touchR := pos < len(r.buf) && iv.end == r.buf[pos].start
	switch {
	case touchL && touchR: // fills the gap exactly: merge three into one
		r.buf[pos-1].end = r.buf[pos].end
		r.buf = append(r.buf[:pos], r.buf[pos+1:]...)
	case touchL:
		r.buf[pos-1].end = iv.end
	case touchR:
		r.buf[pos].start = iv.start
	default:
		r.buf = append(r.buf, interval{})
		copy(r.buf[pos+1:], r.buf[pos:])
		r.buf[pos] = iv
	}
}

// trim bounds the window: fold the oldest intervals (and the gaps before
// them) into solidUntil, and slide the live window back to the front of the
// backing array once the dead prefix would otherwise force append to grow it.
func (r *Resource) trim() {
	for len(r.buf)-r.head > retainIntervals {
		r.solidUntil = r.buf[r.head].end
		r.head++
	}
	if r.head >= retainIntervals {
		n := copy(r.buf, r.buf[r.head:])
		r.buf = r.buf[:n]
		r.head = 0
	}
}

// Acquire occupies r for d in the earliest gap starting no earlier than
// ready, returning the interval [start, end) actually occupied.
func (r *Resource) Acquire(ready Time, d Duration) (start, end Time) {
	start = r.fitFrom(ready, d)
	end = start.Add(d)
	if d > 0 {
		r.insert(interval{start, end})
	}
	r.busyFor += d
	r.ops++
	return start, end
}

// EarliestStart reports when an operation that is ready at the given time
// and needs every resource in rs for duration d could begin, without
// acquiring anything. Each fitFrom is monotone in its argument, so the
// least common fit is a unique fixpoint; cycling until len(rs) consecutive
// resources confirm the current start reaches it with N calls instead of
// 2N when nothing conflicts (the overwhelmingly common case).
func EarliestStart(ready Time, d Duration, rs ...*Resource) Time {
	if len(rs) == 1 {
		return rs[0].fitFrom(ready, d)
	}
	start := ready
	ok := 0 // consecutive resources known to fit at start
	for i := 0; ; i++ {
		r := rs[i%len(rs)]
		if s := r.fitFrom(start, d); s > start {
			start = s
			ok = 1 // r fits at its own answer; everyone else must re-confirm
		} else {
			ok++
		}
		if ok >= len(rs) {
			return start
		}
	}
}

// AcquireAll occupies every resource in rs for d in the earliest common gap
// starting no earlier than ready. All resources occupy the same interval. It
// models an operation phase (such as a page transfer) that holds the channel
// and the chip serial bus simultaneously.
func AcquireAll(ready Time, d Duration, rs ...*Resource) (start, end Time) {
	start = EarliestStart(ready, d, rs...)
	end = start.Add(d)
	for _, r := range rs {
		if d > 0 {
			r.insert(interval{start, end})
		}
		r.busyFor += d
		r.ops++
	}
	return start, end
}
