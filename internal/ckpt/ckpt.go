// Package ckpt provides the binary primitives behind persistent warm-up
// checkpoints: a little-endian append Writer, a sticky-error Reader, and a
// self-describing file container (magic, format version, payload length,
// checksum).
//
// The package deliberately knows nothing about simulator state. Every live
// structure keeps its fields unexported, so each one encodes itself and
// decodes straight back into itself in the package that owns it (sim,
// flash, stats, the FTL schemes, ssd); ckpt only supplies the byte-level
// vocabulary they share. That keeps the import graph acyclic: ckpt imports
// nothing from the simulator, everyone else imports ckpt.
//
// Layout conventions: all integers are little-endian and fixed-width, slices
// are length-prefixed (u32 count, then the elements back to back), so any
// slab can be located by reading its prefix and skipped or mapped without
// parsing the elements. A container is read with exactly two ReadFull calls
// — header, then the whole payload into one (pooled) buffer — which is also
// the shape an mmap-based loader would want.
package ckpt

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"io"
	"math"
	"os"
	"sync"
)

// Format constants for the file container.
const (
	// magic identifies a DLOOP checkpoint container.
	magic = "DLPC"
	// Version is the container format version. Bump it whenever any encoded
	// layout changes; readers reject other versions and the warm-up cache
	// falls back to fresh simulation.
	Version = 2
	// headerSize is magic(4) + version(u32) + payload length(u64) +
	// payload crc32(u32) + reserved(u32).
	headerSize = 4 + 4 + 8 + 4 + 4
)

// crcTable is the Castagnoli polynomial, hardware-accelerated on amd64/arm64.
var crcTable = crc32.MakeTable(crc32.Castagnoli)

// maxSliceElems bounds any single decoded slice. It is a defense against
// corrupt or truncated length prefixes that slipped past the checksum (or a
// caller decoding an unchecked payload), not a format limit: the guard in
// Reader compares the claimed byte size against the bytes actually left.
const maxSliceElems = 1 << 31

// A Writer appends fixed-width little-endian values to a growing buffer.
// The zero value is ready to use.
type Writer struct {
	buf []byte
}

// NewWriter returns a Writer with the container header reserved and room
// for capacity bytes in all, so a caller that knows roughly how large the
// container will be encodes it into one allocation; finish with Seal.
func NewWriter(capacity int) *Writer {
	if capacity < headerSize {
		capacity = headerSize
	}
	return &Writer{buf: make([]byte, headerSize, capacity)}
}

// Len returns the number of bytes written so far (including the reserved
// header for writers from NewWriter).
func (w *Writer) Len() int { return len(w.buf) }

// Bytes returns the written buffer. The slice aliases the writer.
func (w *Writer) Bytes() []byte { return w.buf }

// Seal fills in the container header over the space NewWriter reserved —
// magic, version, payload length, payload checksum — and returns the
// complete container. The slice aliases the writer.
func (w *Writer) Seal() []byte {
	payload := w.buf[headerSize:]
	copy(w.buf[0:4], magic)
	binary.LittleEndian.PutUint32(w.buf[4:8], Version)
	binary.LittleEndian.PutUint64(w.buf[8:16], uint64(len(payload)))
	binary.LittleEndian.PutUint32(w.buf[16:20], crc32.Checksum(payload, crcTable))
	binary.LittleEndian.PutUint32(w.buf[20:24], 0)
	return w.buf
}

// grow extends the buffer by n bytes and returns the extension.
func (w *Writer) grow(n int) []byte {
	l := len(w.buf)
	if l+n <= cap(w.buf) {
		w.buf = w.buf[:l+n]
	} else {
		w.buf = append(w.buf, make([]byte, n)...)
	}
	return w.buf[l:]
}

// Raw extends the buffer by n bytes and returns the extension for the caller
// to fill — the escape hatch for byte-like slabs (page states) that would
// otherwise need an element-wise append.
func (w *Writer) Raw(n int) []byte { return w.grow(n) }

// U8 appends one byte.
func (w *Writer) U8(v uint8) { w.buf = append(w.buf, v) }

// Bool appends a bool as one byte.
func (w *Writer) Bool(v bool) {
	if v {
		w.buf = append(w.buf, 1)
	} else {
		w.buf = append(w.buf, 0)
	}
}

// U32 appends a little-endian uint32.
func (w *Writer) U32(v uint32) {
	binary.LittleEndian.PutUint32(w.grow(4), v)
}

// U64 appends a little-endian uint64.
func (w *Writer) U64(v uint64) {
	binary.LittleEndian.PutUint64(w.grow(8), v)
}

// I32 appends a little-endian int32.
func (w *Writer) I32(v int32) { w.U32(uint32(v)) }

// I64 appends a little-endian int64.
func (w *Writer) I64(v int64) { w.U64(uint64(v)) }

// Int appends an int as a little-endian int64.
func (w *Writer) Int(v int) { w.U64(uint64(int64(v))) }

// F64 appends a float64 as its IEEE 754 bit pattern, so round-trips are
// bit-exact (including NaN payloads and signed zeros).
func (w *Writer) F64(v float64) { w.U64(math.Float64bits(v)) }

// String appends a length-prefixed string.
func (w *Writer) String(s string) {
	w.U32(uint32(len(s)))
	w.buf = append(w.buf, s...)
}

// Ints appends a length-prefixed []int slab, widened to int64.
func (w *Writer) Ints(s []int) {
	w.U32(uint32(len(s)))
	dst := w.grow(8 * len(s))
	for i, v := range s {
		binary.LittleEndian.PutUint64(dst[8*i:], uint64(int64(v)))
	}
}

// Bools appends a length-prefixed []bool slab, one byte per element.
func (w *Writer) Bools(s []bool) {
	w.U32(uint32(len(s)))
	dst := w.grow(len(s))
	for i, v := range s {
		if v {
			dst[i] = 1
		} else {
			dst[i] = 0
		}
	}
}

// A Reader consumes a buffer written by Writer. Errors are sticky: after the
// first failure every read returns a zero value, so decoders can run
// straight-line and check Err once at the end.
//
// Slab readers decode into slices the caller already owns (the live state
// being restored) instead of allocating: the exact-length forms (SlabInto,
// IntsInto, BoolsInto) fail unless the encoded length equals the
// destination's, and the Append forms bound the length by a caller-supplied
// maximum. A short or long slab is therefore a decode error, never a silent
// partial copy.
type Reader struct {
	buf []byte
	off int
	err error
}

// NewReader returns a Reader over a raw payload (no container header).
func NewReader(b []byte) *Reader { return &Reader{buf: b} }

// Open validates a container (magic, version, length, checksum) and points
// r at its payload, clearing any earlier error. The Reader aliases data
// until the next Open; decoders copy values out, so data may be recycled
// once decoding finishes. A zero Reader is ready to Open, so a long-lived
// owner can keep one by value and restore without allocating.
func (r *Reader) Open(data []byte) error {
	*r = Reader{}
	if len(data) < headerSize {
		return fmt.Errorf("ckpt: short container: %d bytes", len(data))
	}
	if string(data[0:4]) != magic {
		return fmt.Errorf("ckpt: bad magic %q", data[0:4])
	}
	if v := binary.LittleEndian.Uint32(data[4:8]); v != Version {
		return fmt.Errorf("ckpt: format version %d, want %d", v, Version)
	}
	n := binary.LittleEndian.Uint64(data[8:16])
	if n != uint64(len(data)-headerSize) {
		return fmt.Errorf("ckpt: payload length %d does not match container size %d", n, len(data)-headerSize)
	}
	payload := data[headerSize:]
	if sum := crc32.Checksum(payload, crcTable); sum != binary.LittleEndian.Uint32(data[16:20]) {
		return fmt.Errorf("ckpt: payload checksum mismatch")
	}
	r.buf = payload
	return nil
}

// Err returns the first error encountered, if any.
func (r *Reader) Err() error { return r.err }

// Remaining returns the number of unread payload bytes.
func (r *Reader) Remaining() int { return len(r.buf) - r.off }

// fail records the first error.
func (r *Reader) fail(format string, args ...any) {
	if r.err == nil {
		r.err = fmt.Errorf("ckpt: "+format, args...)
	}
}

// Failf lets a decoder record a semantic error (bad flag byte, index out of
// range, shape mismatch) through the same sticky channel as read errors.
func (r *Reader) Failf(format string, args ...any) {
	if r.err == nil {
		r.err = fmt.Errorf(format, args...)
	}
}

// take consumes n bytes and returns them, or nil after a fault.
func (r *Reader) take(n int) []byte {
	if r.err != nil {
		return nil
	}
	if n < 0 || len(r.buf)-r.off < n {
		r.fail("truncated payload: need %d bytes at offset %d of %d", n, r.off, len(r.buf))
		return nil
	}
	b := r.buf[r.off : r.off+n]
	r.off += n
	return b
}

// Count reads a u32 element count and checks that count elements of at
// least minSize encoded bytes each fit in the unread payload, so a corrupt
// prefix fails here rather than driving a long loop. minSize is the
// smallest encoding of one element (4 for an element that is itself a
// length-prefixed slice) and must be at least 1. It returns 0 after a
// fault.
func (r *Reader) Count(minSize int) int {
	n := int(r.U32())
	if r.err != nil {
		return 0
	}
	if n > maxSliceElems || n*minSize > len(r.buf)-r.off {
		r.fail("slice length %d overruns payload", n)
		return 0
	}
	return n
}

// Len is Count for a slab the live structure bounds: it also fails unless
// the count is at most max.
func (r *Reader) Len(minSize, max int) int {
	n := r.Count(minSize)
	if n > max {
		r.fail("slice length %d exceeds %d", n, max)
		return 0
	}
	return n
}

// Slab reads a slab's element count, fails unless it equals want, and
// returns a view of the slab's want*size bytes (nil after a fault). It is
// the exact-length primitive beneath the typed Into readers, exported for
// element types they do not cover.
func (r *Reader) Slab(want, size int) []byte {
	n := r.Count(size)
	if r.err != nil {
		return nil
	}
	if n != want {
		r.fail("slab length %d, live structure has %d", n, want)
		return nil
	}
	return r.take(size * n)
}

// Raw consumes n bytes and returns a view into the payload (not a copy).
func (r *Reader) Raw(n int) []byte { return r.take(n) }

// Bytes reads a length-prefixed byte string (as written by Writer.String)
// and returns a view into the payload.
func (r *Reader) Bytes() []byte { return r.take(r.Count(1)) }

// U8 reads one byte.
func (r *Reader) U8() uint8 {
	b := r.take(1)
	if b == nil {
		return 0
	}
	return b[0]
}

// Bool reads one byte as a bool, rejecting values other than 0 and 1.
func (r *Reader) Bool() bool {
	switch r.U8() {
	case 0:
		return false
	case 1:
		return true
	default:
		r.fail("bad bool byte")
		return false
	}
}

// U32 reads a little-endian uint32.
func (r *Reader) U32() uint32 {
	b := r.take(4)
	if b == nil {
		return 0
	}
	return binary.LittleEndian.Uint32(b)
}

// U64 reads a little-endian uint64.
func (r *Reader) U64() uint64 {
	b := r.take(8)
	if b == nil {
		return 0
	}
	return binary.LittleEndian.Uint64(b)
}

// I32 reads a little-endian int32.
func (r *Reader) I32() int32 { return int32(r.U32()) }

// I64 reads a little-endian int64.
func (r *Reader) I64() int64 { return int64(r.U64()) }

// Int reads an int64-encoded int.
func (r *Reader) Int() int { return int(r.I64()) }

// F64 reads a float64 from its bit pattern.
func (r *Reader) F64() float64 { return math.Float64frombits(r.U64()) }

// IntsInto reads a length-prefixed int64-encoded []int slab of exactly
// len(dst) elements into dst.
func (r *Reader) IntsInto(dst []int) {
	if b := r.Slab(len(dst), 8); b != nil {
		for i := range dst {
			dst[i] = int(int64(binary.LittleEndian.Uint64(b[8*i:])))
		}
	}
}

// BoolsInto reads a length-prefixed []bool slab of exactly len(dst)
// elements into dst.
func (r *Reader) BoolsInto(dst []bool) {
	b := r.Slab(len(dst), 1)
	for i, v := range b {
		if v > 1 {
			r.fail("bad bool byte in slab")
			return
		}
		dst[i] = v == 1
	}
}

// AppendI64s reads a length-prefixed []int64 slab of at most max elements
// and appends it to dst.
func (r *Reader) AppendI64s(dst []int64, max int) []int64 {
	n := r.Len(8, max)
	b := r.take(8 * n)
	for i := 0; i < len(b); i += 8 {
		dst = append(dst, int64(binary.LittleEndian.Uint64(b[i:])))
	}
	return dst
}

// AppendI32s reads a length-prefixed []int32 slab of at most max elements
// and appends it to dst.
func (r *Reader) AppendI32s(dst []int32, max int) []int32 {
	n := r.Len(4, max)
	b := r.take(4 * n)
	for i := 0; i < len(b); i += 4 {
		dst = append(dst, int32(binary.LittleEndian.Uint32(b[i:])))
	}
	return dst
}

// AppendInts reads a length-prefixed int64-encoded []int slab of at most
// max elements and appends it to dst.
func (r *Reader) AppendInts(dst []int, max int) []int {
	n := r.Len(8, max)
	b := r.take(8 * n)
	for i := 0; i < len(b); i += 8 {
		dst = append(dst, int(int64(binary.LittleEndian.Uint64(b[i:]))))
	}
	return dst
}

// bufPool recycles whole-file read buffers so repeated cache loads do not
// churn multi-megabyte allocations. Entries are *[]byte to keep Put
// allocation-free.
var bufPool sync.Pool

// LoadFile reads an entire file into a pooled buffer with one ReadFull and
// returns the contents plus a release func that recycles the buffer. The
// caller must not retain data (or anything aliasing it) past release.
func LoadFile(path string) (data []byte, release func(), err error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, nil, err
	}
	defer f.Close()
	info, err := f.Stat()
	if err != nil {
		return nil, nil, err
	}
	n := int(info.Size())
	var bp *[]byte
	if v := bufPool.Get(); v != nil && cap(*v.(*[]byte)) >= n {
		bp = v.(*[]byte)
	} else {
		b := make([]byte, n)
		bp = &b
	}
	buf := (*bp)[:n]
	release = func() {
		*bp = buf[:0]
		bufPool.Put(bp)
	}
	if _, err := io.ReadFull(f, buf); err != nil {
		release()
		return nil, nil, err
	}
	return buf, release, nil
}
