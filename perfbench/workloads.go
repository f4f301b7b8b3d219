package main

import (
	"fmt"
	"math"
	"os"
	"path/filepath"
	"time"

	"dloop/internal/obs"
	"dloop/internal/sim"
	"dloop/internal/ssd"
	"dloop/internal/trace"
	"dloop/internal/workload"
)

// workloads are the benchmark's scenarios; README.md records why each was
// chosen and which layers it loads.
var workloads = map[string]scenario{
	"replay-read": replayRead{},
	"gc-write":    gcWrite{},
	"mq-mixed":    mqMixed{},
	"paper-sweep": paperSweep{},
}

// Workload sizes. Each measured phase runs about one to two seconds on a
// 2-CPU x86-64 machine, so a 10 s run repeats set-up and measured phase
// several times and reports medians.
const (
	replayScale    = 0.05
	replayRequests = 2_000_000
	replayCMT      = 204 // the 4096-entry CMT scaled like expt does: 4096 * replayScale

	gcScale    = 0.02
	gcRequests = 1_000_000

	mqScale    = 0.05
	mqShards   = 2
	mqRequests = 2_500_000
)

// ---------------------------------------------------------------------------
// replay-read: a read-mostly DiskSim trace streamed through the parser.

type replayRead struct{}

func (replayRead) setup(seed int64, dir string, sp *spans) (instance, setupCost, error) {
	var cost setupCost
	geo, err := ssd.ScaledGeometryFor(8, 2, 0.03, 3, replayScale)
	if err != nil {
		return nil, cost, err
	}
	p := workload.Financial2().ScaleFootprint(replayScale)
	reqs, err := generate(p, seed, replayRequests, sp, &cost)
	if err != nil {
		return nil, cost, err
	}
	path := filepath.Join(dir, fmt.Sprintf("replay-read-seed%d.disksim", seed))
	id := sp.begin("trace.WriteDiskSim")
	err = writeDiskSim(path, reqs)
	sp.end(id)
	if err != nil {
		return nil, cost, err
	}
	cfg := ssd.Config{
		CapacityGB: 8, FTL: ssd.SchemeDLOOP, Geometry: &geo,
		CMTEntries: replayCMT,
	}
	id = sp.begin("ssd.Build")
	c, err := ssd.Build(cfg)
	sp.end(id)
	if err == nil {
		if err = precondition(c, p.FootprintBytes, sp, &cost); err != nil {
			c.Close()
		}
	}
	if err != nil {
		os.Remove(path)
		return nil, cost, err
	}
	return &simRun{
		c: c, requests: len(reqs), wantPages: pageSpan(reqs, geo.PageSize), file: path, tail: newTail(len(reqs)),
		replay: func(sp *spans, pt *parseTimer) (ssd.Result, error) {
			f, err := os.Open(path)
			if err != nil {
				return ssd.Result{}, err
			}
			defer f.Close()
			var r trace.Reader = trace.NewDiskSimReader(f)
			if pt != nil {
				r = pt.wrap(r)
			}
			id := sp.begin("ssd.Run")
			defer sp.end(id)
			return c.Run(r)
		},
		check: func(c *ssd.Controller, res ssd.Result) []string {
			if res.TransReads == 0 {
				return []string{"replay-read made no translation-page reads: the CMT-miss path is idle"}
			}
			return nil
		},
	}, cost, nil
}

func writeDiskSim(path string, reqs []trace.Request) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := trace.WriteDiskSim(f, reqs); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// ---------------------------------------------------------------------------
// gc-write: update-only skewed writes on a nearly full device.

type gcWrite struct{}

func (gcWrite) setup(seed int64, dir string, sp *spans) (instance, setupCost, error) {
	var cost setupCost
	geo, err := ssd.ScaledGeometryFor(4, 2, 0.03, 3, gcScale)
	if err != nil {
		return nil, cost, err
	}
	cfg := ssd.Config{CapacityGB: 4, FTL: ssd.SchemeDLOOP, Geometry: &geo}
	id := sp.begin("ssd.Build")
	c, err := ssd.Build(cfg)
	sp.end(id)
	if err != nil {
		return nil, cost, err
	}
	p := workload.Financial1()
	p.WriteRatio = 1.0 // pure updates: every request invalidates live pages
	p.ZipfS = 1.05
	p.FootprintBytes = int64(c.Capacity()) * int64(geo.PageSize) * 9 / 10
	reqs, err := generate(p, seed, gcRequests, sp, &cost)
	if err == nil {
		err = precondition(c, p.FootprintBytes, sp, &cost)
	}
	if err != nil {
		c.Close()
		return nil, cost, err
	}
	return &simRun{
		c: c, requests: len(reqs), wantPages: pageSpan(reqs, geo.PageSize), tail: newTail(len(reqs)),
		replay: func(sp *spans, _ *parseTimer) (ssd.Result, error) {
			id := sp.begin("ssd.EnqueueBatch")
			err := c.EnqueueBatch(reqs)
			sp.end(id)
			if err != nil {
				return c.Result(), err
			}
			id = sp.begin("ssd.Flush")
			c.Flush()
			sp.end(id)
			id = sp.begin("ssd.Result")
			defer sp.end(id)
			return c.Result(), nil
		},
		check: func(c *ssd.Controller, res ssd.Result) []string {
			if res.GCRuns == 0 {
				return []string{"gc-write never triggered garbage collection"}
			}
			return nil
		},
	}, cost, nil
}

// ---------------------------------------------------------------------------
// mq-mixed: the multi-queue front end with two concurrent FTL shards.

type mqMixed struct{}

func (mqMixed) setup(seed int64, dir string, sp *spans) (instance, setupCost, error) {
	var cost setupCost
	geo, err := ssd.ScaledGeometryFor(16, 2, 0.03, 3, mqScale)
	if err != nil {
		return nil, cost, err
	}
	cfg := ssd.Config{
		CapacityGB: 16, FTL: ssd.SchemeDLOOP, Geometry: &geo,
		FTLShards: mqShards, Merge: ssd.MergeDeterministic,
	}
	id := sp.begin("ssd.Build")
	c, err := ssd.Build(cfg)
	sp.end(id)
	if err != nil {
		return nil, cost, err
	}
	p := workload.Financial1()
	p.FootprintBytes = int64(c.Capacity()) * int64(geo.PageSize) / 2
	reqs, err := generate(p, seed, mqRequests, sp, &cost)
	if err == nil {
		err = precondition(c, p.FootprintBytes, sp, &cost)
	}
	if err != nil {
		c.Close()
		return nil, cost, err
	}
	arena := trace.ArenaOf(reqs)
	return &simRun{
		c: c, requests: len(reqs), wantPages: pageSpan(reqs, geo.PageSize), tail: newTail(len(reqs)),
		replay: func(sp *spans, _ *parseTimer) (ssd.Result, error) {
			id := sp.begin("ssd.Run")
			defer sp.end(id)
			return c.Run(arena.Cursor())
		},
		check: func(c *ssd.Controller, res ssd.Result) []string {
			if n := c.FTLShards(); n != mqShards {
				return []string{fmt.Sprintf("mq-mixed runs %d FTL shards, want %d", n, mqShards)}
			}
			return nil
		},
	}, cost, nil
}

// ---------------------------------------------------------------------------
// Shared pieces of the three single-simulator workloads.

// generate materializes the workload's requests, timing workload.Generate.
func generate(p workload.Profile, seed int64, n int, sp *spans, cost *setupCost) ([]trace.Request, error) {
	id := sp.begin("workload.Generate")
	t := time.Now()
	reqs, err := workload.Generate(p, seed, n)
	cost.gen += time.Since(t)
	cost.genReqs += int64(n)
	sp.end(id)
	return reqs, err
}

func precondition(c *ssd.Controller, bytes int64, sp *spans, cost *setupCost) error {
	id := sp.begin("ssd.PreconditionBytes")
	t := time.Now()
	err := c.PreconditionBytes(bytes)
	cost.precondition += time.Since(t)
	sp.end(id)
	return err
}

// pageSpan counts the host page operations a request stream asks for: the
// pages each request's sector range touches. The simulator must report
// exactly this many served pages.
func pageSpan(reqs []trace.Request, pageSize int) int64 {
	spp := int64(pageSize / trace.SectorSize)
	var n int64
	for _, r := range reqs {
		n += (r.End()-1)/spp - r.LBN/spp + 1
	}
	return n
}

// simRun is a built, preconditioned controller and the replay that
// measures it.
type simRun struct {
	c         *ssd.Controller
	requests  int
	wantPages int64 // page span the benchmark computed from its own inputs
	// replay runs the measured calls; a non-nil pt times the trace parser.
	replay func(sp *spans, pt *parseTimer) (ssd.Result, error)
	check  func(*ssd.Controller, ssd.Result) []string
	file   string // generated trace file to remove on close, if any
	tail   *topK  // the slowest 1% of the measured phase's response times
}

func (s *simRun) close() {
	s.c.Close()
	if s.file != "" {
		os.Remove(s.file)
	}
}

func (s *simRun) measure(sp *spans, m mode) outcome {
	var col *obs.Collector
	var lat []sim.Duration
	var pt *parseTimer
	if m == profiled {
		pt = &parseTimer{}
	}
	if m == observed {
		col = obs.NewCollector(s.c.ObsOptions())
		s.c.SetRecorder(col)
		lat = make([]sim.Duration, 0, s.requests)
	}
	// The tail metric and the p99 check need the response times themselves:
	// Result keeps only a bucketed histogram.
	s.c.SetLatencyHook(func(d sim.Duration) {
		s.tail.add(d)
		if lat != nil {
			lat = append(lat, d)
		}
	})
	res, err := s.replay(sp, pt)
	s.c.SetLatencyHook(nil)
	out := outcome{
		attempted: int64(s.requests),
		served:    res.Requests,
		pages:     res.PagesRead + res.PagesWrit,
		sim:       fidelity{meanMs: res.MeanRespMs, tailMs: s.tail.mean().Milliseconds(), sdrpp: res.SDRPP},
		err:       err,
	}
	if col != nil {
		s.c.SetRecorder(nil)
		if cerr := col.Close(); cerr != nil && out.err == nil {
			out.err = cerr
		}
	}
	if out.err != nil {
		return out
	}
	if out.served != out.attempted {
		out.problems = append(out.problems, fmt.Sprintf("served %d of %d requests", out.served, out.attempted))
	}
	if out.pages != s.wantPages {
		out.problems = append(out.problems, fmt.Sprintf("served %d host pages, the trace spans %d", out.pages, s.wantPages))
	}
	// The histogram's p99 is the lower edge of the ~7.5%-wide bucket that
	// holds the exact value.
	if p99 := s.tail.min().Milliseconds(); p99 < res.P99Ms || p99 > res.P99Ms*p99BucketWidth {
		out.problems = append(out.problems, fmt.Sprintf("exact p99 %v ms is outside the histogram bucket at %v ms", p99, res.P99Ms))
	}
	out.problems = append(out.problems, s.check(s.c, res)...)
	if col != nil {
		out.layer = simCounters(s.c, res, col.Registry().Snapshot(), lat)
	}
	if pt != nil && pt.reqs > 0 {
		out.layer = map[string]float64{"trace.parse_ns_per_req": float64(pt.ns) / float64(pt.reqs)}
	}
	return out
}

// parseTimer wraps a trace reader and times the parse in chunks of
// parseChunk requests, so timing costs two clock reads per chunk rather
// than per request.
type parseTimer struct {
	r    trace.Reader
	buf  []trace.Request
	pos  int
	ns   int64
	reqs int64
	err  error
}

const parseChunk = 256

func (p *parseTimer) wrap(r trace.Reader) trace.Reader {
	p.r = r
	p.buf = make([]trace.Request, 0, parseChunk)
	return p
}

// Next implements trace.Reader.
func (p *parseTimer) Next() (trace.Request, error) {
	if p.pos == len(p.buf) {
		if p.err != nil {
			return trace.Request{}, p.err
		}
		p.buf, p.pos = p.buf[:0], 0
		t := time.Now()
		for len(p.buf) < parseChunk {
			req, err := p.r.Next()
			if err != nil {
				p.err = err
				break
			}
			p.buf = append(p.buf, req)
		}
		p.ns += time.Since(t).Nanoseconds()
		p.reqs += int64(len(p.buf))
		if len(p.buf) == 0 {
			return trace.Request{}, p.err
		}
	}
	p.pos++
	return p.buf[p.pos-1], nil
}

// p99BucketWidth is the ratio between successive bounds of the latency
// histogram behind Result.P99Ms: 32 buckets per decade.
var p99BucketWidth = math.Pow(10, 1.0/32)

// topK keeps the k largest durations seen in a min-heap, so its minimum is
// the k-th largest, in O(k) memory. Simulated latencies are sums of a few
// flash timings, so a percentile is one of a handful of values that reads
// the same across seeds; the mean of the tail moves with the workload.
type topK struct {
	h []sim.Duration
	k int
}

// newTail returns a topK that keeps the slowest 1% of n durations: its
// minimum is their nearest-rank 99th percentile, its mean the mean of that
// tail. It is allocated in set-up, so the measured phase's allocation count
// stays the program's own.
func newTail(n int) *topK {
	k := n - int(math.Ceil(0.99*float64(n))) + 1
	return &topK{h: make([]sim.Duration, 0, k), k: k}
}

func (t *topK) add(d sim.Duration) {
	if len(t.h) < t.k {
		t.h = append(t.h, d)
		for i := len(t.h) - 1; i > 0; {
			p := (i - 1) / 2
			if t.h[p] <= t.h[i] {
				break
			}
			t.h[p], t.h[i] = t.h[i], t.h[p]
			i = p
		}
		return
	}
	if d <= t.h[0] {
		return
	}
	t.h[0] = d
	for i := 0; ; {
		c := 2*i + 1
		if c >= len(t.h) {
			break
		}
		if c+1 < len(t.h) && t.h[c+1] < t.h[c] {
			c++
		}
		if t.h[i] <= t.h[c] {
			break
		}
		t.h[i], t.h[c] = t.h[c], t.h[i]
		i = c
	}
}

func (t *topK) min() sim.Duration {
	if len(t.h) == 0 {
		return 0
	}
	return t.h[0]
}

func (t *topK) mean() sim.Duration {
	if len(t.h) == 0 {
		return 0
	}
	var sum sim.Duration
	for _, d := range t.h {
		sum += d
	}
	return sum / sim.Duration(len(t.h))
}
