package ckpt

import (
	"encoding/binary"
	"unsafe"
)

// Elem is the element type of a slab that PutSlab and SlabInto move in
// bulk: a fixed-width integer, including named types over one (page
// states, physical page numbers).
type Elem interface {
	~int8 | ~uint8 | ~int32 | ~uint32 | ~int64 | ~uint64
}

// hostLE reports whether the host is little-endian, in which case a slab's
// encoding is byte for byte its in-memory layout and moves with one copy.
var hostLE = binary.NativeEndian.Uint16([]byte{1, 0}) == 1

// raw views a slab's elements as their in-memory bytes.
func raw[T Elem](s []T) []byte {
	return unsafe.Slice((*byte)(unsafe.Pointer(unsafe.SliceData(s))), len(s)*int(unsafe.Sizeof(*new(T))))
}

// PutSlab appends a length-prefixed slab of fixed-width little-endian
// integers: a u32 count, then the elements back to back.
func PutSlab[T Elem](w *Writer, s []T) {
	w.U32(uint32(len(s)))
	size := int(unsafe.Sizeof(*new(T)))
	dst := w.grow(size * len(s))
	if hostLE {
		copy(dst, raw(s))
		return
	}
	for i, v := range s {
		switch size {
		case 1:
			dst[i] = byte(v)
		case 4:
			binary.LittleEndian.PutUint32(dst[4*i:], uint32(v))
		default:
			binary.LittleEndian.PutUint64(dst[8*i:], uint64(v))
		}
	}
}

// SlabInto reads a slab written by PutSlab into dst. The encoded length must
// equal len(dst); anything else fails r and leaves dst untouched.
func SlabInto[T Elem](r *Reader, dst []T) {
	size := int(unsafe.Sizeof(*new(T)))
	b := r.Slab(len(dst), size)
	if b == nil {
		return
	}
	if hostLE {
		copy(raw(dst), b)
		return
	}
	for i := range dst {
		switch size {
		case 1:
			dst[i] = T(b[i])
		case 4:
			dst[i] = T(binary.LittleEndian.Uint32(b[4*i:]))
		default:
			dst[i] = T(binary.LittleEndian.Uint64(b[8*i:]))
		}
	}
}
