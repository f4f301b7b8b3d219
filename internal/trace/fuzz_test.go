package trace

import (
	"bytes"
	"errors"
	"io"
	"math"
	"strconv"
	"testing"
)

// Fuzz targets for the trace readers, the untrusted edge where trace files
// enter the simulator. The seed corpora run with the ordinary tests; explore
// further with, for example,
//
//	go test -run '^$' -fuzz FuzzParseNumbers -fuzztime 20s ./internal/trace

// sameErr reports whether two errors are both nil or carry the same text.
func sameErr(a, b error) bool {
	if a == nil || b == nil {
		return a == b
	}
	return a.Error() == b.Error()
}

// FuzzParseNumbers pins the allocation-free number parsers to strconv: for
// any input the value must be bit-identical and the error text the same.
func FuzzParseNumbers(f *testing.F) {
	for _, s := range []string{
		"0", "7", "-3", "12.5", ".5", "5.", ".", "", "-", "1e3", "0x1p-2",
		"NaN", "-Inf", "+4", "1_000", "123456789012345678", "1234567890123456789",
		"9223372036854775808", "-9223372036854775808", "0.1234567890123456789",
		"00000000000000000000001", "1.0000000000000000000000001",
	} {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, s string) {
		b := []byte(s)
		gotF, errF := parseFloatBytes(b)
		wantF, wantErrF := strconv.ParseFloat(s, 64)
		if math.Float64bits(gotF) != math.Float64bits(wantF) || !sameErr(errF, wantErrF) {
			t.Fatalf("parseFloatBytes(%q) = %v, %v; strconv gives %v, %v", s, gotF, errF, wantF, wantErrF)
		}
		gotI, errI := parseIntBytes(b)
		wantI, wantErrI := strconv.ParseInt(s, 10, 64)
		if gotI != wantI || !sameErr(errI, wantErrI) {
			t.Fatalf("parseIntBytes(%q) = %v, %v; strconv gives %v, %v", s, gotI, errI, wantI, wantErrI)
		}
		gotA, errA := parseAtoiBytes(b)
		wantA, wantErrA := strconv.Atoi(s)
		if gotA != wantA || !sameErr(errA, wantErrA) {
			t.Fatalf("parseAtoiBytes(%q) = %v, %v; strconv gives %v, %v", s, gotA, errA, wantA, wantErrA)
		}
	})
}

// FuzzDiskSimLine pins the byte-wise DiskSim line parser to the reference
// string parser on ASCII lines, the only lines it handles itself: the same
// request and the same error text.
func FuzzDiskSimLine(f *testing.F) {
	for _, s := range []string{
		"0.5 0 1024 8 1", "12.25\t0\t7\t1\t0", "1 0 0 8 0x1", "1 0 0 8 ff",
		"1 0 0 8 010", "1 0 -5 8 1", "1 0 5 0 1", "-1 0 5 8 1", "1e300 0 5 8 1",
		"1 0 5 8", "1 0 5 8 1 9", "NaN 0 5 8 1", "1 0 5 8 0b11", "1 0 5 8 1_0",
	} {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, line string) {
		if !asciiLine([]byte(line)) {
			return
		}
		var r DiskSimReader
		got, err := r.parseLine([]byte(line))
		want, wantErr := parseDiskSimLine(line)
		if got != want || !sameErr(err, wantErr) {
			t.Fatalf("parseLine(%q) = %+v, %v; reference gives %+v, %v", line, got, err, want, wantErr)
		}
	})
}

// FuzzSPCReader feeds the SPC reader arbitrary streams: every record it
// returns must be a valid Request, and it must end in io.EOF or an error,
// never a panic.
func FuzzSPCReader(f *testing.F) {
	for _, s := range []string{
		"0,1024,4096,R,0.5\n", "0,0,512,w,1.25\n1,8,1,W,2\n", "# c\n\n0,1,2,r,3,extra\n",
		"0,-1,512,R,1\n", "0,1,-512,R,1\n", "0,1,512,X,1\n", "0,1,512,R,-1\n",
		"0,1,512,R,NaN\n", "0,1,512,R,1e300\n", "0,1,512\n", " 0 , 7 , 513 , r , 0.001 ",
	} {
		f.Add([]byte(s))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		r := NewSPCReader(bytes.NewReader(data))
		for n := 0; n <= len(data); n++ {
			req, err := r.Next()
			if err != nil {
				if !errors.Is(err, io.EOF) && req != (Request{}) {
					t.Fatalf("error %v returned with request %+v", err, req)
				}
				return
			}
			if verr := req.Validate(); verr != nil {
				t.Fatalf("reader returned invalid request %+v: %v", req, verr)
			}
		}
		t.Fatalf("reader returned more requests than the %d-byte input has lines", len(data))
	})
}
