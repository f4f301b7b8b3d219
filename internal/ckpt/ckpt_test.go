package ckpt

import (
	"bytes"
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// TestPrimitivesRoundTrip writes one of everything and reads it back.
func TestPrimitivesRoundTrip(t *testing.T) {
	w := NewWriter(0)
	w.U8(0xAB)
	w.Bool(true)
	w.Bool(false)
	w.U32(0xDEADBEEF)
	w.U64(1 << 60)
	w.I32(-7)
	w.I64(-1 << 50)
	w.Int(-42)
	w.F64(math.Copysign(0, -1)) // signed zero must survive
	w.F64(3.14159)
	w.String("hello")
	w.String("")
	PutSlab(w, []int64{1, -2, 3})
	PutSlab(w, []int64(nil))
	PutSlab(w, []int32{-1, 2})
	w.Ints([]int{9, 8, 7})
	w.Bools([]bool{true, false, true})
	copy(w.Raw(3), []byte{1, 2, 3})

	var r Reader
	if err := r.Open(w.Seal()); err != nil {
		t.Fatal(err)
	}
	if got := r.U8(); got != 0xAB {
		t.Fatalf("U8 = %x", got)
	}
	if !r.Bool() || r.Bool() {
		t.Fatal("Bool mismatch")
	}
	if got := r.U32(); got != 0xDEADBEEF {
		t.Fatalf("U32 = %x", got)
	}
	if got := r.U64(); got != 1<<60 {
		t.Fatalf("U64 = %x", got)
	}
	if got := r.I32(); got != -7 {
		t.Fatalf("I32 = %d", got)
	}
	if got := r.I64(); got != -1<<50 {
		t.Fatalf("I64 = %d", got)
	}
	if got := r.Int(); got != -42 {
		t.Fatalf("Int = %d", got)
	}
	if got := r.F64(); math.Float64bits(got) != math.Float64bits(math.Copysign(0, -1)) {
		t.Fatalf("F64 lost the sign of -0: %v", got)
	}
	if got := r.F64(); got != 3.14159 {
		t.Fatalf("F64 = %v", got)
	}
	if got := string(r.Bytes()); got != "hello" {
		t.Fatalf("Bytes = %q", got)
	}
	if got := r.Bytes(); len(got) != 0 {
		t.Fatalf("empty Bytes = %q", got)
	}
	i64s := make([]int64, 3)
	if SlabInto(&r, i64s); i64s[1] != -2 {
		t.Fatalf("I64sInto = %v", i64s)
	}
	if got := r.AppendI64s(nil, 0); len(got) != 0 {
		t.Fatalf("empty AppendI64s = %v", got)
	}
	if got := r.AppendI32s(nil, 2); len(got) != 2 || got[0] != -1 {
		t.Fatalf("AppendI32s = %v", got)
	}
	ints := make([]int, 3)
	if r.IntsInto(ints); ints[2] != 7 {
		t.Fatalf("IntsInto = %v", ints)
	}
	bools := make([]bool, 3)
	if r.BoolsInto(bools); !bools[0] || bools[1] || !bools[2] {
		t.Fatalf("BoolsInto = %v", bools)
	}
	if got := r.Raw(3); !bytes.Equal(got, []byte{1, 2, 3}) {
		t.Fatalf("Raw = %v", got)
	}
	if err := r.Err(); err != nil {
		t.Fatal(err)
	}
	// Reading past the end is the sticky-error case, not a panic.
	if got := r.U64(); got != 0 {
		t.Fatalf("overread returned %d", got)
	}
	if r.Err() == nil {
		t.Fatal("overread not recorded")
	}
}

// TestContainerValidation corrupts a sealed container every way the header
// can lie and checks Open rejects each one.
func TestContainerValidation(t *testing.T) {
	seal := func() []byte {
		w := NewWriter(0)
		PutSlab(w, []int64{1, 2, 3, 4})
		w.String("payload")
		return append([]byte(nil), w.Seal()...)
	}
	var r Reader
	if err := r.Open(seal()); err != nil {
		t.Fatalf("pristine container rejected: %v", err)
	}
	cases := []struct {
		name    string
		corrupt func([]byte) []byte
		want    string
	}{
		{"short", func(b []byte) []byte { return b[:headerSize-1] }, "short container"},
		{"magic", func(b []byte) []byte { b[0] ^= 0xFF; return b }, "bad magic"},
		{"version", func(b []byte) []byte { b[4]++; return b }, "format version"},
		{"truncated", func(b []byte) []byte { return b[:len(b)-1] }, "length"},
		{"bitflip", func(b []byte) []byte { b[len(b)-1] ^= 0x01; return b }, "checksum"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			var r Reader
			err := r.Open(tc.corrupt(seal()))
			if err == nil {
				t.Fatal("corrupted container accepted")
			}
			if !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("error %q does not mention %q", err, tc.want)
			}
		})
	}
}

// TestSliceLenGuard feeds a payload whose length prefix claims more elements
// than the payload holds; the reader must fail, not allocate gigabytes.
func TestSliceLenGuard(t *testing.T) {
	w := NewWriter(0)
	w.U32(1 << 30) // claims 2^30 int64s = 8 GB
	var r Reader
	if err := r.Open(w.Seal()); err != nil {
		t.Fatal(err)
	}
	if got := r.AppendI64s(nil, 1<<31); got != nil {
		t.Fatalf("overrunning slice decoded to %d elems", len(got))
	}
	if r.Err() == nil {
		t.Fatal("overrunning slice length not recorded")
	}
}

// TestCountBoundsByMinSize checks the exported bounded count: a prefix is
// accepted exactly when count*minSize fits in the bytes left after it.
func TestCountBoundsByMinSize(t *testing.T) {
	payload := []byte{3, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0} // count 3, 8 bytes left
	if n := NewReader(payload).Count(2); n != 3 {
		t.Fatalf("Count(2) = %d, want 3", n)
	}
	r := NewReader(payload)
	if n := r.Count(3); n != 0 || r.Err() == nil {
		t.Fatalf("Count(3) = %d, err %v; want 0 and an overrun error", n, r.Err())
	}
}

// TestBoolRejectsJunk checks a non-0/1 bool byte is a decode error: it means
// the reader has lost framing, and silently coercing would hide that.
func TestBoolRejectsJunk(t *testing.T) {
	r := NewReader([]byte{2})
	r.Bool()
	if r.Err() == nil {
		t.Fatal("bool byte 2 accepted")
	}
	r = NewReader([]byte{6, 0, 0, 0, 1, 0, 1, 0, 2, 0})
	if r.BoolsInto(make([]bool, 6)); r.Err() == nil {
		t.Fatal("bool slab with junk byte decoded")
	}
}

// TestLoadFileRoundTrip writes a sealed container to disk, loads it through
// the pooled whole-file path, and decodes it; then again, to exercise reuse
// of the released buffer.
func TestLoadFileRoundTrip(t *testing.T) {
	path := filepath.Join(t.TempDir(), "x.ckpt")
	w := NewWriter(0)
	w.String("persisted")
	w.I64(99)
	if err := os.WriteFile(path, w.Seal(), 0o644); err != nil {
		t.Fatal(err)
	}
	for round := 0; round < 2; round++ {
		data, release, err := LoadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		var r Reader
		if err := r.Open(data); err != nil {
			t.Fatal(err)
		}
		if got := string(r.Bytes()); got != "persisted" {
			t.Fatalf("round %d: %q", round, got)
		}
		if got := r.I64(); got != 99 {
			t.Fatalf("round %d: %d", round, got)
		}
		if err := r.Err(); err != nil {
			t.Fatal(err)
		}
		release()
	}
	if _, _, err := LoadFile(filepath.Join(t.TempDir(), "absent")); err == nil {
		t.Fatal("missing file loaded")
	}
}

// TestSealedBytesDeterministic: equal writes produce byte-equal containers —
// the property the content-addressed warm-up cache leans on.
func TestSealedBytesDeterministic(t *testing.T) {
	mk := func() []byte {
		w := NewWriter(0)
		w.String("abc")
		w.Ints([]int{5, 6})
		w.F64(2.5)
		return append([]byte(nil), w.Seal()...)
	}
	if !bytes.Equal(mk(), mk()) {
		t.Fatal("identical writes sealed to different bytes")
	}
}

// TestSlabLengthMustFit checks the in-place slab readers reject a slab
// whose length does not fit the destination — too short, too long, or over
// the Append bound — instead of copying part of it.
func TestSlabLengthMustFit(t *testing.T) {
	w := NewWriter(0)
	PutSlab(w, []int64{1, 2, 3})
	payload := w.Bytes()[headerSize:]
	for _, n := range []int{2, 4} {
		r := NewReader(payload)
		dst := make([]int64, n)
		if SlabInto(r, dst); r.Err() == nil {
			t.Fatalf("3-element slab accepted into %d elements", n)
		}
		if dst[0] != 0 {
			t.Fatalf("rejected slab was partly copied: %v", dst)
		}
	}
	r := NewReader(payload)
	if got := r.AppendI64s(nil, 2); got != nil || r.Err() == nil {
		t.Fatalf("3-element slab appended under a bound of 2: %v", got)
	}
}

// TestSlabByteOrderFallback runs the element-wise path a big-endian host
// takes and checks it encodes and decodes exactly what the bulk copy does.
func TestSlabByteOrderFallback(t *testing.T) {
	type state uint8
	enc := func() []byte {
		var w Writer
		PutSlab(&w, []int64{-1, 1 << 40})
		PutSlab(&w, []int32{-7, 9})
		PutSlab(&w, []state{0, 2, 1})
		return w.Bytes()
	}
	bulk := enc()
	defer func(le bool) { hostLE = le }(hostLE)
	hostLE = false
	if got := enc(); !bytes.Equal(got, bulk) {
		t.Fatalf("element-wise encoding %x, bulk %x", got, bulk)
	}
	r := NewReader(bulk)
	i64s, i32s, states := make([]int64, 2), make([]int32, 2), make([]state, 3)
	SlabInto(r, i64s)
	SlabInto(r, i32s)
	SlabInto(r, states)
	if r.Err() != nil || i64s[0] != -1 || i64s[1] != 1<<40 || i32s[0] != -7 || i32s[1] != 9 || states[1] != 2 {
		t.Fatalf("element-wise decode: %v %v %v (%v)", i64s, i32s, states, r.Err())
	}
}
