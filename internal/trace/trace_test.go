package trace

import (
	"bytes"
	"io"
	"math/rand"
	"reflect"
	"strings"
	"testing"
	"testing/quick"

	"dloop/internal/sim"
)

func TestRequestValidate(t *testing.T) {
	good := Request{Arrival: 10, LBN: 5, Sectors: 8, Op: OpRead}
	if err := good.Validate(); err != nil {
		t.Fatal(err)
	}
	bad := []Request{
		{Arrival: -1, LBN: 0, Sectors: 1, Op: OpRead},
		{Arrival: 0, LBN: -2, Sectors: 1, Op: OpRead},
		{Arrival: 0, LBN: 0, Sectors: 0, Op: OpRead},
		{Arrival: 0, LBN: 0, Sectors: 1, Op: Op(9)},
	}
	for i, r := range bad {
		if err := r.Validate(); err == nil {
			t.Errorf("case %d: Validate accepted %+v", i, r)
		}
	}
}

func TestRequestDerived(t *testing.T) {
	r := Request{LBN: 100, Sectors: 8}
	if r.Bytes() != 4096 {
		t.Errorf("Bytes = %d, want 4096", r.Bytes())
	}
	if r.End() != 108 {
		t.Errorf("End = %d, want 108", r.End())
	}
}

func TestSliceReader(t *testing.T) {
	reqs := []Request{
		{Arrival: 1, LBN: 0, Sectors: 1, Op: OpRead},
		{Arrival: 2, LBN: 8, Sectors: 2, Op: OpWrite},
	}
	got, err := ReadAll(NewSliceReader(reqs))
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, reqs) {
		t.Fatalf("got %+v, want %+v", got, reqs)
	}
}

func TestDiskSimRoundTrip(t *testing.T) {
	reqs := []Request{
		{Arrival: sim.Time(1500 * sim.Microsecond), LBN: 1234, Sectors: 8, Op: OpRead},
		{Arrival: sim.Time(2 * sim.Millisecond), LBN: 99, Sectors: 1, Op: OpWrite},
	}
	var buf bytes.Buffer
	if err := WriteDiskSim(&buf, reqs); err != nil {
		t.Fatal(err)
	}
	got, err := ReadAll(NewDiskSimReader(&buf))
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, reqs) {
		t.Fatalf("round trip:\n got %+v\nwant %+v", got, reqs)
	}
}

func TestDiskSimParsesCommentsAndBlank(t *testing.T) {
	in := "# header\n\n0.5 0 100 8 1\n"
	got, err := ReadAll(NewDiskSimReader(strings.NewReader(in)))
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 1 || got[0].Op != OpRead || got[0].LBN != 100 {
		t.Fatalf("got %+v", got)
	}
}

func TestDiskSimRejectsMalformed(t *testing.T) {
	for _, in := range []string{
		"1.0 0 100 8",    // missing field
		"x 0 100 8 0",    // bad arrival
		"1.0 0 y 8 0",    // bad lbn
		"1.0 0 100 z 0",  // bad size
		"1.0 0 100 8 gg", // bad flags
		"1.0 0 -5 8 0",   // negative lbn
		"1.0 0 100 0 0",  // zero size
	} {
		if _, err := ReadAll(NewDiskSimReader(strings.NewReader(in))); err == nil {
			t.Errorf("accepted malformed line %q", in)
		}
	}
	// Arrivals the nanosecond clock cannot hold fail as arrival errors
	// before the float-to-int conversion, never as "negative arrival". The
	// NBSP-separated line takes the reference (non-ASCII) parser.
	for _, in := range []string{
		"NaN 0 100 8 0",
		"+Inf 0 100 8 0",
		"1e300 0 100 8 0",
		"-1e300 0 100 8 0",
		"1e300\u00a00 100 8 0",
	} {
		_, err := ReadAll(NewDiskSimReader(strings.NewReader(in)))
		if err == nil || !strings.Contains(err.Error(), "arrival") || strings.Contains(err.Error(), "negative") {
			t.Errorf("%q: err = %v, want an arrival range error", in, err)
		}
	}
}

func TestSPCRoundTrip(t *testing.T) {
	reqs := []Request{
		{Arrival: sim.Time(1 * sim.Second), LBN: 5000, Sectors: 8, Op: OpWrite},
		{Arrival: sim.Time(2 * sim.Second), LBN: 16, Sectors: 4, Op: OpRead},
	}
	var buf bytes.Buffer
	if err := WriteSPC(&buf, reqs); err != nil {
		t.Fatal(err)
	}
	got, err := ReadAll(NewSPCReader(&buf))
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, reqs) {
		t.Fatalf("round trip:\n got %+v\nwant %+v", got, reqs)
	}
}

func TestSPCSubSectorSizeRoundsUp(t *testing.T) {
	in := "0,100,100,r,0.5\n" // 100 bytes -> 1 sector
	got, err := ReadAll(NewSPCReader(strings.NewReader(in)))
	if err != nil {
		t.Fatal(err)
	}
	if got[0].Sectors != 1 {
		t.Fatalf("Sectors = %d, want 1", got[0].Sectors)
	}
}

func TestSPCRejectsMalformed(t *testing.T) {
	for _, in := range []string{
		"0,100,512,x,0.5", // bad opcode
		"0,a,512,r,0.5",   // bad lba
		"0,100,b,r,0.5",   // bad size
		"0,100,512,r,c",   // bad timestamp
		"0,100,512",       // short line
	} {
		if _, err := ReadAll(NewSPCReader(strings.NewReader(in))); err == nil {
			t.Errorf("accepted malformed line %q", in)
		}
	}
	// A negative size is an error; sector rounding must not turn -1..-1022
	// bytes into a 1-sector request.
	for _, in := range []string{"0,100,-1,r,0.5", "0,100,-1022,r,0.5"} {
		if _, err := ReadAll(NewSPCReader(strings.NewReader(in))); err == nil || !strings.Contains(err.Error(), "size") {
			t.Errorf("%q: err = %v, want a size error", in, err)
		}
	}
	// Timestamps the nanosecond clock cannot hold fail before the
	// float-to-int conversion, never as "negative arrival".
	for _, in := range []string{"0,100,512,r,NaN", "0,100,512,r,+Inf", "0,100,512,r,1e300", "0,100,512,r,-1e300"} {
		_, err := ReadAll(NewSPCReader(strings.NewReader(in)))
		if err == nil || !strings.Contains(err.Error(), "timestamp") || strings.Contains(err.Error(), "negative") {
			t.Errorf("%q: err = %v, want a timestamp range error", in, err)
		}
	}
}

func TestSummarize(t *testing.T) {
	reqs := []Request{
		{Arrival: sim.Time(1 * sim.Second), LBN: 0, Sectors: 8, Op: OpWrite},
		{Arrival: sim.Time(60 * sim.Second), LBN: 100, Sectors: 4, Op: OpRead},
		{Arrival: sim.Time(120 * sim.Second), LBN: 50, Sectors: 2, Op: OpWrite},
	}
	s := Summarize(reqs)
	if s.Reads != 1 || s.Writes != 2 {
		t.Errorf("reads=%d writes=%d", s.Reads, s.Writes)
	}
	if s.Requests() != 3 {
		t.Errorf("Requests = %d", s.Requests())
	}
	if got := s.WriteRatio(); got < 0.66 || got > 0.67 {
		t.Errorf("WriteRatio = %v", got)
	}
	if s.MinLBN != 0 || s.MaxEnd != 104 {
		t.Errorf("footprint [%d,%d)", s.MinLBN, s.MaxEnd)
	}
	wantMean := float64(8+4+2) * SectorSize / 3
	if got := s.MeanSizeBytes(); got != wantMean {
		t.Errorf("MeanSizeBytes = %v, want %v", got, wantMean)
	}
	if got := s.Rate(); got != 3.0/120 {
		t.Errorf("Rate = %v, want %v", got, 3.0/120)
	}
	if Summarize(nil).Requests() != 0 {
		t.Error("empty summary")
	}
}

// Property: DiskSim format round-trips arbitrary valid requests.
func TestDiskSimRoundTripProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		reqs := make([]Request, 50)
		for i := range reqs {
			op := OpRead
			if rng.Intn(2) == 0 {
				op = OpWrite
			}
			reqs[i] = Request{
				// Keep arrivals on whole microseconds so the ms text format
				// (6 decimal places = ns resolution) is exact.
				Arrival: sim.Time(rng.Int63n(1e9)) * 1000,
				LBN:     rng.Int63n(1 << 32),
				Sectors: rng.Intn(256) + 1,
				Op:      op,
			}
		}
		var buf bytes.Buffer
		if err := WriteDiskSim(&buf, reqs); err != nil {
			return false
		}
		got, err := ReadAll(NewDiskSimReader(&buf))
		return err == nil && reflect.DeepEqual(got, reqs)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

func TestReadAllPropagatesError(t *testing.T) {
	r := NewDiskSimReader(io.LimitReader(strings.NewReader("bogus line here"), 15))
	if _, err := ReadAll(r); err == nil {
		t.Fatal("expected parse error")
	}
}
