package ssd

import (
	"crypto/sha256"
	"errors"
	"fmt"
	"io"

	"dloop/internal/ckpt"
	"dloop/internal/flash"
	"dloop/internal/ftl"
	"dloop/internal/ftl/bast"
	"dloop/internal/ftl/dftl"
	"dloop/internal/ftl/dloop"
	"dloop/internal/ftl/fast"
	"dloop/internal/ftl/pagemap"
	"dloop/internal/obs"
	"dloop/internal/sim"
	"dloop/internal/stats"
	"dloop/internal/trace"
)

// Controller is the host-facing side of the simulated SSD. It aligns every
// request on page boundaries, splits it into one-page operations dispatched
// together (so striped placements can serve them on several planes at once),
// and measures response times from arrival to the completion of the last
// page. Not safe for concurrent use.
type Controller struct {
	// dev and f are the single-FTL engine's device and translation layer.
	// They are nil on a front-end controller (Config.FTLShards > 1), where
	// every page operation routes through fe's shards instead; use
	// Geometry/Capacity/ShardDevice/ShardFTL to stay engine-agnostic.
	dev *flash.Device
	f   ftl.FTL
	cfg Config
	// digest caches ConfigDigest(cfg) once a checkpoint first needs it:
	// every checkpoint embeds it and every Restore checks it.
	digest    [sha256.Size]byte
	hasDigest bool
	// rd decodes checkpoints in Restore; kept here so restoring does not
	// allocate a reader.
	rd ckpt.Reader

	// fe, when non-nil, is the multi-queue front end over N concurrent FTL
	// shards (see frontend.go).
	fe *frontEnd

	sectorsPerPage int64
	// pageShift replaces pageSpan's divisions with shifts when the page
	// holds a power-of-two sector count (it always does for the Table I
	// page sizes); pagePow2 gates the fast path.
	pagePow2  bool
	pageShift uint

	resp      stats.Welford // milliseconds
	readResp  stats.Welford
	writeResp stats.Welford
	hist      stats.LatencyHist
	series    *stats.TimeSeries // optional, see EnableTimeSeries
	buffer    *writeBuffer      // optional, see Config.BufferPages
	lastDone  sim.Time
	served    int64
	pagesRead int64
	pagesWrit int64

	rec obs.Recorder // nil when observability is disabled

	// lastRT is the response time most recently folded by the front end,
	// which Serve returns on a multi-queue controller.
	lastRT sim.Duration

	// latHook, when set, receives every request's response time in arrival
	// order on both engines; the differential tests use it to compare the
	// serial and concurrent latency streams element-for-element.
	latHook func(sim.Duration)

	// pulse, when set, fires at quiescent points (after every front-end
	// epoch, or per request on the single-FTL engine); the live HTTP
	// exporter publishes registry snapshots from it. The callback is
	// responsible for its own rate limiting.
	pulse func()
}

func newController(dev *flash.Device, f ftl.FTL, cfg Config) *Controller {
	c := &Controller{
		dev:            dev,
		f:              f,
		cfg:            cfg,
		sectorsPerPage: int64(dev.Geometry().PageSize / trace.SectorSize),
	}
	if cfg.BufferPages > 0 {
		c.buffer = newWriteBuffer(cfg.BufferPages)
	}
	c.initPageSpan()
	return c
}

// initPageSpan precomputes the page-span shift when sectors-per-page is a
// power of two.
func (c *Controller) initPageSpan() {
	if spp := c.sectorsPerPage; spp > 0 && spp&(spp-1) == 0 {
		c.pagePow2 = true
		for int64(1)<<c.pageShift < spp {
			c.pageShift++
		}
	}
}

// newFEController wraps a multi-queue front end in a Controller. dev and f
// stay nil; the front end owns one device and FTL per shard.
func newFEController(fe *frontEnd, cfg Config) *Controller {
	c := &Controller{
		fe:             fe,
		cfg:            cfg,
		sectorsPerPage: int64(fe.geo.PageSize / trace.SectorSize),
	}
	c.initPageSpan()
	return c
}

// EnableTimeSeries records per-request response times bucketed by arrival
// time, exposing latency evolution (GC stalls show as spikes). Call before
// Run; retrieve with TimeSeries.
func (c *Controller) EnableTimeSeries(bucket sim.Duration) error {
	ts, err := stats.NewTimeSeries(bucket)
	if err != nil {
		return err
	}
	c.series = ts
	return nil
}

// TimeSeries returns the response-time series, or nil if not enabled.
func (c *Controller) TimeSeries() *stats.TimeSeries { return c.series }

// Device exposes the underlying flash device (read-only use intended). It is
// nil on a front-end controller — use ShardDevice there.
func (c *Controller) Device() *flash.Device { return c.dev }

// FTL exposes the flash translation layer in use. It is nil on a front-end
// controller — use ShardFTL there.
func (c *Controller) FTL() ftl.FTL { return c.f }

// Geometry returns the whole-device geometry on either engine.
func (c *Controller) Geometry() flash.Geometry {
	if c.fe != nil {
		return c.fe.geo
	}
	return c.dev.Geometry()
}

// Capacity returns the exported logical-page count on either engine.
func (c *Controller) Capacity() ftl.LPN {
	if c.fe != nil {
		return c.fe.cap
	}
	return c.f.Capacity()
}

// FTLShards returns the number of concurrent FTL shards (1 = single FTL).
func (c *Controller) FTLShards() int {
	if c.fe != nil {
		return len(c.fe.shards)
	}
	return 1
}

// ShardFTL returns FTL shard i's translation layer (read-only use intended).
// On a single-FTL controller, shard 0 is the FTL itself.
func (c *Controller) ShardFTL(i int) ftl.FTL {
	if c.fe != nil {
		return c.fe.shards[i].f
	}
	return c.f
}

// ShardDevice returns FTL shard i's sub-device (read-only use intended). On
// a single-FTL controller, shard 0 is the device itself.
func (c *Controller) ShardDevice(i int) *flash.Device {
	if c.fe != nil {
		return c.fe.shards[i].dev
	}
	return c.dev
}

// ShardOfLPN returns the FTL shard owning a logical page and the
// shard-local page it maps to there (identity on a single-FTL controller).
func (c *Controller) ShardOfLPN(lpn ftl.LPN) (shard int, local ftl.LPN) {
	if c.fe != nil {
		sh, l := c.fe.shardOf(lpn)
		return sh.idx, ftl.LPN(l)
	}
	return 0, lpn
}

// Config returns the configuration the controller was built with.
func (c *Controller) Config() Config { return c.cfg }

// ObsOptions returns a collector configuration matched to this SSD: the FTL
// name and the device's plane/channel shape. Callers add sinks and the
// snapshot interval before obs.NewCollector.
func (c *Controller) ObsOptions() obs.Options {
	geo := c.Geometry()
	var channelOfPlane []int32
	f := c.f
	if c.fe != nil {
		channelOfPlane = c.fe.channelOfPlane()
		f = c.fe.shards[0].f
	} else {
		channelOfPlane = c.dev.ChannelOfPlane()
	}
	opts := obs.Options{
		FTL:            f.Name(),
		Planes:         geo.Planes(),
		Channels:       geo.Channels,
		ChannelOfPlane: channelOfPlane,
		PagesPerBlock:  geo.PagesPerBlock,
	}
	if c.fe != nil {
		opts.Shards = len(c.fe.shards)
		opts.ShardOfChannel = c.fe.shardOfChannel()
	}
	if p, ok := f.(interface{ GCPolicyName() string }); ok {
		opts.GCPolicy = p.GCPolicyName()
	}
	return opts
}

// SetRecorder attaches (or, with nil, detaches) an observability recorder to
// the whole stack: host-request completions here, flash operations at the
// device, and GC/merge/CMT activity at the FTL (via ftl.Observable). When
// the recorder is an *obs.Collector it is also wired to sample the device's
// busy-time utilization at Close. On a multi-queue controller a collector
// observes the shards while they run concurrently (each worker records into
// a private child merged back at barriers). Attach after preconditioning so
// the stream covers exactly the measured window.
func (c *Controller) SetRecorder(r obs.Recorder) {
	if c.fe != nil {
		c.fe.setRecorder(c, r)
		return
	}
	c.rec = r
	c.dev.SetRecorder(r)
	if o, ok := c.f.(ftl.Observable); ok {
		o.SetRecorder(r)
	}
	if col, ok := r.(*obs.Collector); ok && col != nil {
		col.SetUtilizationSource(c.dev.BusyTimes)
	}
}

// SetPulse registers fn (nil detaches) to run at quiescent points: after
// every epoch on the multi-queue front end, and after every served request
// on the single-FTL engine. The collector's SnapshotRegistry is safe to call
// from inside it, which is how dloopsim's -listen exporter publishes live
// metrics mid-run. The callback should rate-limit itself; pulses arrive at
// epoch frequency.
func (c *Controller) SetPulse(fn func()) { c.pulse = fn }

// pageSpan returns the logical pages touched by a sector range. Callers
// validate the request first, so the sector indices are non-negative and
// the shift fast path agrees with the division.
func (c *Controller) pageSpan(r trace.Request) (first, last ftl.LPN) {
	if c.pagePow2 {
		return ftl.LPN(r.LBN >> c.pageShift), ftl.LPN((r.End() - 1) >> c.pageShift)
	}
	first = ftl.LPN(r.LBN / c.sectorsPerPage)
	last = ftl.LPN((r.End() - 1) / c.sectorsPerPage)
	return first, last
}

// Precondition sequentially writes the first `pages` logical pages once,
// putting the device into the steady state a deployed SSD reaches after its
// working set has been populated: the workload's footprint is live on flash
// and its mappings are persisted, so updates invalidate pages and garbage
// collection runs from the first measured request. Device utilization is
// footprint/capacity — which is why larger SSDs delay collection, the
// capacity trend of Fig. 8. All statistics and resource timelines are then
// reset.
func (c *Controller) Precondition(pages ftl.LPN) error {
	if c.fe != nil {
		return c.fe.precondition(c, pages)
	}
	if pages > c.f.Capacity() {
		return fmt.Errorf("ssd: precondition %d pages exceeds capacity %d", pages, c.f.Capacity())
	}
	var t sim.Time
	for lpn := ftl.LPN(0); lpn < pages; lpn++ {
		end, err := c.f.WritePage(lpn, t)
		if err != nil {
			return fmt.Errorf("ssd: precondition lpn %d: %w", lpn, err)
		}
		t = end
	}
	c.ResetMeasurement()
	return nil
}

// PreconditionBytes preconditions enough pages to cover a byte footprint.
func (c *Controller) PreconditionBytes(bytes int64) error {
	pageSize := int64(c.Geometry().PageSize)
	return c.Precondition(ftl.LPN((bytes + pageSize - 1) / pageSize))
}

// ResetMeasurement zeroes every statistic and resource timeline while
// keeping device and FTL state, so measurement starts from now.
func (c *Controller) ResetMeasurement() {
	if c.fe != nil {
		c.fe.discard()
		c.fe.resetMeasurement()
	} else {
		c.dev.ResetStats()
	}
	c.lastRT = 0
	c.resp = stats.Welford{}
	c.readResp = stats.Welford{}
	c.writeResp = stats.Welford{}
	c.hist = stats.LatencyHist{}
	if c.series != nil {
		ts, _ := stats.NewTimeSeries(c.series.BucketWidth())
		c.series = ts
	}
	c.lastDone = 0
	c.served = 0
	c.pagesRead = 0
	c.pagesWrit = 0
}

// Serve executes one host request, returning its response time. On a
// multi-queue controller it issues the work and immediately barriers;
// callers replaying whole traces should prefer Run (or Enqueue+Flush), which
// pipelines many requests per barrier.
func (c *Controller) Serve(r trace.Request) (sim.Duration, error) {
	if c.fe != nil {
		if err := c.fe.enqueue(c, r); err != nil {
			return 0, err
		}
		c.Flush()
		if c.fe.err != nil {
			return 0, c.fe.err
		}
		return c.lastRT, nil
	}
	if err := r.Validate(); err != nil {
		return 0, err
	}
	first, last := c.pageSpan(r)
	if err := ftl.CheckLPN(last, c.f.Capacity()); err != nil {
		return 0, fmt.Errorf("ssd: request [%d,%d) exceeds device: %w", r.LBN, r.End(), err)
	}
	done := r.Arrival
	for lpn := first; lpn <= last; lpn++ {
		var end sim.Time
		var err error
		switch {
		case r.Op == trace.OpRead && c.buffer != nil && c.buffer.readHit(lpn):
			end = r.Arrival.Add(c.buffer.dramLat)
			c.pagesRead++
		case r.Op == trace.OpRead:
			end, err = c.f.ReadPage(lpn, r.Arrival)
			c.pagesRead++
		case c.buffer != nil:
			end, err = c.buffer.put(c.f, lpn, r.Arrival)
			c.pagesWrit++
		default:
			end, err = c.f.WritePage(lpn, r.Arrival)
			c.pagesWrit++
		}
		if err != nil {
			return 0, err
		}
		if end > done {
			done = end
		}
	}
	rt := done.Sub(r.Arrival)
	ms := rt.Milliseconds()
	c.resp.Add(ms)
	if r.Op == trace.OpRead {
		c.readResp.Add(ms)
	} else {
		c.writeResp.Add(ms)
	}
	c.hist.Add(rt)
	if c.series != nil {
		c.series.Add(r.Arrival, ms)
	}
	if done > c.lastDone {
		c.lastDone = done
	}
	c.served++
	if c.rec != nil {
		c.rec.RecordRequest(r.Op == trace.OpRead, r.Arrival, done)
	}
	if c.latHook != nil {
		c.latHook(rt)
	}
	return rt, nil
}

// SetLatencyHook registers fn to receive every served request's response
// time in arrival order (nil detaches). Both engines call it — the
// single-FTL one per Serve, the front end as each epoch's completions are
// folded — so equivalence tests can compare the exact latency streams.
func (c *Controller) SetLatencyHook(fn func(sim.Duration)) { c.latHook = fn }

// Drain flushes every dirty buffered page through the FTL (a clean
// shutdown). No-op without a buffer.
func (c *Controller) Drain(at sim.Time) (sim.Time, error) {
	if c.fe != nil {
		c.Flush()
		return at, c.fe.err
	}
	if c.buffer == nil {
		return at, nil
	}
	return c.buffer.flushAll(c.f, at)
}

// BufferStats reports the DRAM buffer's dirty page count, write hits, read
// hits, and background flushes (zeros without a buffer).
func (c *Controller) BufferStats() (dirty int, hitsW, hitsR, flushes int64) {
	if c.buffer == nil {
		return 0, 0, 0, 0
	}
	return c.buffer.Len(), c.buffer.hitsW, c.buffer.hitsR, c.buffer.flushes
}

// Close stops the multi-queue front end's worker goroutines after a final
// barrier; the controller remains usable (the front end falls back to
// serial execution). No-op on a single-FTL controller.
func (c *Controller) Close() {
	if c.fe != nil {
		c.fe.flush(c)
		c.fe.stop()
	}
}

// Enqueue serves one request on the pipelined path: on the multi-queue
// engine FTL decisions run on the shard workers and timing resolves at the
// next epoch fold. Epoch handoffs are automatic — every 4096 parked pages,
// and implicitly in every statistics reader — so callers may Enqueue
// indefinitely. On a single-FTL controller it is Serve with the
// response time discarded.
func (c *Controller) Enqueue(r trace.Request) error {
	if c.fe != nil {
		if err := c.fe.enqueue(c, r); err != nil {
			return err
		}
		c.fe.maybeAdvance(c)
		return nil
	}
	_, err := c.Serve(r)
	if err == nil && c.pulse != nil {
		c.pulse()
	}
	return err
}

// Flush is the front end's full epoch barrier: wait for every shard to
// finish the work issued so far, then fold each pending request into the
// response-time accumulators in arrival order. No-op on a single-FTL
// controller, which folds every request as Serve returns.
func (c *Controller) Flush() {
	if c.fe != nil {
		c.fe.flush(c)
		if c.pulse != nil {
			c.pulse()
		}
	}
}

// runChunk is how many requests Run pulls from a batching reader per
// EnqueueBatch call on the multi-queue engine.
const runChunk = 256

// Run replays every request from the reader and returns the results. On a
// multi-queue controller a reader that also implements trace.BatchReader
// feeds the batch dispatch stage in runChunk chunks, keeping classification
// off the staging path.
func (c *Controller) Run(r trace.Reader) (Result, error) {
	if br, ok := r.(trace.BatchReader); ok && c.fe != nil {
		buf := make([]trace.Request, runChunk)
		for {
			n, err := br.NextN(buf)
			if n > 0 {
				if derr := c.EnqueueBatch(buf[:n]); derr != nil {
					return Result{}, derr
				}
			}
			if err != nil {
				if isEOF(err) {
					break
				}
				return Result{}, err
			}
			if n == 0 {
				break
			}
		}
		return c.Result(), nil
	}
	for {
		req, err := r.Next()
		if err != nil {
			if isEOF(err) {
				break
			}
			return Result{}, err
		}
		if err := c.Enqueue(req); err != nil {
			return Result{}, err
		}
	}
	return c.Result(), nil
}

// EnqueueBatch dispatches a chunk of requests on the pipelined path. On a
// multi-queue controller the chunk flows through the batch dispatch stage —
// every request is classified (validated, page-spanned, bounds-checked)
// before any is staged, so an error means nothing from the chunk was
// dispatched. On the single-FTL engine it is Enqueue in a loop.
func (c *Controller) EnqueueBatch(reqs []trace.Request) error {
	if c.fe != nil {
		return c.fe.enqueueBatch(c, reqs)
	}
	for i := range reqs {
		if err := c.Enqueue(reqs[i]); err != nil {
			return err
		}
	}
	return nil
}

func isEOF(err error) bool { return errors.Is(err, io.EOF) }

// Result summarizes a measurement window.
type Result struct {
	FTL        string
	GCPolicy   string // victim-selection policy in effect ("" if not reported)
	Requests   int64
	PagesRead  int64
	PagesWrit  int64
	SimulatedS float64 // simulated seconds until the last completion

	MeanRespMs  float64 // the paper's headline metric
	StdRespMs   float64
	MaxRespMs   float64
	ReadMeanMs  float64
	WriteMeanMs float64
	P50Ms       float64
	P99Ms       float64

	SDRPP       float64 // ln of the stddev of per-plane operation counts
	PlaneOps    []int64
	WearCV      float64 // coefficient of variation of per-block erase counts
	TotalErases int64

	// Flash traffic.
	Reads, Writes, CopyBacks, Erases int64
	GCCopyBacks, GCExternalMoves     int64
	WastedPages                      int64

	// FTL-specific accounting (zero where not applicable).
	CMTHitRate    float64
	TransReads    int64
	TransWrites   int64
	LearnedHits   int64
	GCRuns        int64
	SwitchMerges  int64
	PartialMerges int64
	FullMerges    int64
	MergeCopies   int64
}

// Result snapshots the current measurement window.
func (c *Controller) Result() Result {
	if c.fe != nil {
		return c.fe.result(c)
	}
	c.Flush()
	ds := c.dev.Stats()
	res := Result{
		FTL:         c.f.Name(),
		Requests:    c.served,
		PagesRead:   c.pagesRead,
		PagesWrit:   c.pagesWrit,
		SimulatedS:  sim.Duration(c.lastDone).Seconds(),
		MeanRespMs:  c.resp.Mean(),
		StdRespMs:   c.resp.StdDev(),
		MaxRespMs:   c.resp.Max(),
		ReadMeanMs:  c.readResp.Mean(),
		WriteMeanMs: c.writeResp.Mean(),
		P50Ms:       c.hist.Quantile(0.5).Milliseconds(),
		P99Ms:       c.hist.Quantile(0.99).Milliseconds(),
		PlaneOps:    ds.PlaneTotals(),
		Reads:       ds.Reads(),
		Writes:      ds.Writes(),
		CopyBacks:   ds.CopyBacks(),
		Erases:      ds.Erases(),
		WastedPages: ds.WastedPages,
	}
	if p, ok := c.f.(interface{ GCPolicyName() string }); ok {
		res.GCPolicy = p.GCPolicyName()
	}
	res.SDRPP = stats.SDRPP(res.PlaneOps)
	res.GCCopyBacks, res.GCExternalMoves = ds.GCMoves()
	erases := make([]int64, len(ds.BlockErases))
	for i, e := range ds.BlockErases {
		erases[i] = int64(e)
		res.TotalErases += int64(e)
	}
	res.WearCV = stats.CV(erases)

	switch f := c.f.(type) {
	case *dloop.DLOOP:
		s := f.Stats()
		res.GCRuns = s.GCRuns
		res.TransReads = s.MapperStats.TransReads
		res.TransWrites = s.MapperStats.TransWrites
		res.LearnedHits = s.MapperStats.LearnedHits
		res.CMTHitRate, _, _ = f.CMTHitRate()
	case *dftl.DFTL:
		s := f.Stats()
		res.GCRuns = s.GCRuns
		res.TransReads = s.MapperStats.TransReads
		res.TransWrites = s.MapperStats.TransWrites
		res.LearnedHits = s.MapperStats.LearnedHits
		res.CMTHitRate, _, _ = f.CMTHitRate()
	case *fast.FAST:
		s := f.Stats()
		res.SwitchMerges = s.SwitchMerges
		res.PartialMerges = s.PartialMerges
		res.FullMerges = s.FullMerges
		res.MergeCopies = s.MergeCopies
	case *bast.BAST:
		s := f.Stats()
		res.SwitchMerges = s.SwitchMerges
		res.FullMerges = s.FullMerges
		res.MergeCopies = s.MergeCopies
	case *pagemap.PureMap:
		s := f.Stats()
		res.GCRuns = s.GCRuns
	}
	return res
}
