package stats

import (
	"dloop/internal/ckpt"
	"dloop/internal/sim"
)

// Encode appends the accumulator to w. Floats travel as IEEE bit patterns,
// so a round-trip reproduces running means bit-exactly.
func (s *Welford) Encode(w *ckpt.Writer) {
	w.I64(s.n)
	w.F64(s.mean)
	w.F64(s.m2)
	w.F64(s.min)
	w.F64(s.max)
}

// Decode overwrites the accumulator with one written by Encode.
func (s *Welford) Decode(r *ckpt.Reader) {
	*s = Welford{n: r.I64(), mean: r.F64(), m2: r.F64(), min: r.F64(), max: r.F64()}
}

// Encode appends the histogram to w, preserving the nil/non-nil state of the
// bucket slice so re-encoding a restored histogram is byte-identical.
func (h *LatencyHist) Encode(w *ckpt.Writer) {
	w.Bool(h.counts != nil)
	if h.counts != nil {
		ckpt.PutSlab(w, h.counts)
	}
	w.I64(h.total)
}

// Decode overwrites the histogram with one written by Encode, reusing the
// live bucket slice when there is one. A non-nil histogram always has
// histMaxBuckets buckets, so any other slab length fails r.
func (h *LatencyHist) Decode(r *ckpt.Reader) {
	if r.Bool() {
		if h.counts == nil {
			h.counts = make([]int64, histMaxBuckets)
		}
		ckpt.SlabInto(r, h.counts)
	} else {
		h.counts = nil
	}
	h.total = r.I64()
}

// EncodeTimeSeries appends a possibly-nil TimeSeries to w.
func EncodeTimeSeries(w *ckpt.Writer, ts *TimeSeries) {
	w.Bool(ts != nil)
	if ts == nil {
		return
	}
	w.I64(int64(ts.bucket))
	w.U32(uint32(len(ts.buckets)))
	for i := range ts.buckets {
		ts.buckets[i].Encode(w)
	}
}

// DecodeTimeSeries reads a series written by EncodeTimeSeries into ts,
// reusing its buckets, and returns it; it returns nil when none was encoded
// and a new series when ts is nil. A non-positive bucket width fails r.
func DecodeTimeSeries(r *ckpt.Reader, ts *TimeSeries) *TimeSeries {
	if !r.Bool() {
		return nil
	}
	if ts == nil {
		ts = &TimeSeries{}
	}
	ts.bucket = sim.Duration(r.I64())
	if ts.bucket <= 0 && r.Err() == nil {
		r.Failf("stats: time series bucket width %v", ts.bucket)
	}
	n := r.Count(40) // Welford: five 8-byte fields
	ts.buckets = ts.buckets[:0]
	for i := 0; i < n; i++ {
		ts.buckets = append(ts.buckets, Welford{})
		ts.buckets[i].Decode(r)
	}
	return ts
}
