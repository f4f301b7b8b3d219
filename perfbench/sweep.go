package main

import (
	"encoding/json"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"time"

	"dloop/internal/expt"
	"dloop/internal/obs"
	"dloop/internal/ssd"
	"dloop/internal/workload"
)

// The reduced-scale capacity sweep: 3 schemes x 5 traces x 5 capacities.
const (
	sweepRequests = 4000
	sweepScale    = 0.02
	sweepPageKB   = 2 // Fig. 8 runs every cell with 2 KB pages
	sweepCells    = 75
	// sweepWorkers runs the cells one at a time: the sweep then measures its
	// total work, not how much of it a co-tenant lets run in parallel.
	sweepWorkers = 1
)

// paperSweep runs expt.Fig8 twice against one fresh warm-up cache. The cold
// pass simulates and publishes every cell's warm-up; it is the sweep's
// set-up. The warm pass restores every warm-up from the cache and only
// simulates the measured windows; it is the measured phase.
type paperSweep struct{}

type sweepRun struct {
	opt   expt.Options
	dir   string
	pages map[string]int64 // host pages of each trace's request stream
	cold  sweepPass
}

// sweepPass is one Fig8 call and what it produced.
type sweepPass struct {
	mrt, sdrpp *expt.Grid
	wall       time.Duration
	stats      obs.RegistrySnapshot
}

func (paperSweep) setup(seed int64, dir string, sp *spans) (instance, setupCost, error) {
	var cost setupCost
	s := &sweepRun{
		opt: expt.Options{
			Requests: sweepRequests, Scale: sweepScale, Seed: seed,
			Workers: sweepWorkers,
		},
		pages: map[string]int64{},
	}
	// The sweep replays each trace's first Requests requests of the scaled
	// profile; generate them here to know the page span every cell serves.
	for _, p := range workload.All() {
		reqs, err := generate(p.ScaleFootprint(sweepScale), seed, sweepRequests, sp, &cost)
		if err != nil {
			return nil, cost, err
		}
		s.pages[p.Name] = pageSpan(reqs, sweepPageKB*1024)
	}
	var err error
	if s.dir, err = os.MkdirTemp(dir, "sweep-"); err != nil {
		return nil, cost, err
	}
	s.opt.WarmupCache = filepath.Join(s.dir, "warmups")
	if s.cold, err = s.pass(sp, "expt.Fig8 cold", s.opt); err != nil {
		s.close()
		return nil, cost, err
	}
	return s, cost, nil
}

func (s *sweepRun) close() { os.RemoveAll(s.dir) }

func (s *sweepRun) pass(sp *spans, name string, opt expt.Options) (sweepPass, error) {
	st := &expt.SweepStats{}
	opt.Stats = st
	id := sp.begin(name)
	t := time.Now()
	mrt, sdrpp, err := expt.Fig8(opt)
	wall := time.Since(t)
	sp.end(id)
	reg := obs.NewRegistry()
	st.Publish(reg)
	return sweepPass{mrt: mrt, sdrpp: sdrpp, wall: wall, stats: reg.Snapshot()}, err
}

func (s *sweepRun) measure(sp *spans, m mode) outcome {
	opt := s.opt
	if m == observed {
		// Attach an obs collector to every cell and write its metrics.
		opt.MetricsDir = filepath.Join(s.dir, "metrics")
	}
	out := outcome{attempted: sweepCells * sweepRequests}
	warm, err := s.pass(sp, "expt.Fig8 warm", opt)
	if err != nil {
		out.err = err
		return out
	}
	cold := s.cold
	coldCells, _ := s.cells(cold.mrt)
	cells, pages := s.cells(warm.mrt)
	// expt.Fig8 reports only its grids, so the sweep's host pages are the
	// page spans of the traces behind its filled cells.
	out.served = int64(cells) * sweepRequests
	out.pages = pages
	if coldCells != sweepCells || cells != sweepCells {
		out.problems = append(out.problems, fmt.Sprintf("sweep passes filled %d and %d cells, want %d", coldCells, cells, sweepCells))
	}
	if !sameGrid(cold.mrt, warm.mrt) || !sameGrid(cold.sdrpp, warm.sdrpp) {
		out.problems = append(out.problems, "warm-pass grids differ from the cold pass")
	}
	warmups := cold.stats.Counters["expt.warmup.simulated"]
	hits := warm.stats.Counters["expt.warmup.cache.hits"]
	if misses := warm.stats.Counters["expt.warmup.cache.misses"]; misses != 0 || hits == 0 || hits != warmups {
		out.problems = append(out.problems, fmt.Sprintf(
			"warm pass was not all cache hits: %d hits, %d misses, %d warm-ups published", hits, misses, warmups))
	}
	out.sim = gridFidelity(warm.mrt, warm.sdrpp)
	out.layer = map[string]float64{"expt.dloop_gain_vs_dftl_pct": out.sim.gain}
	if m == observed {
		if err := cellCounters(opt.MetricsDir, out.layer); err != nil {
			out.err = err
			return out
		}
		out.layer["expt.cache_hits"] = float64(hits)
		out.layer["expt.cache_misses"] = float64(cold.stats.Counters["expt.warmup.cache.misses"])
		out.layer["expt.warmups"] = float64(warmups)
		out.layer["expt.forked_cells"] = float64(cold.stats.Counters["expt.cells.forked"] + warm.stats.Counters["expt.cells.forked"])
		if warmups > 0 {
			out.layer["ckpt.bytes_per_warmup"] = float64(cold.stats.Counters["expt.warmup.cache.written_bytes"]) / float64(warmups)
		}
		out.layer["expt.cold_pass_warmup_frac"] = 1 - warm.wall.Seconds()/cold.wall.Seconds()
	}
	return out
}

// cells counts the filled cells of a Fig8 grid and the host pages they
// served.
func (s *sweepRun) cells(g *expt.Grid) (n int, pages int64) {
	for _, p := range workload.All() {
		for _, scheme := range ssd.Schemes() {
			for _, x := range g.XVals {
				if _, ok := g.Get(p.Name+"/"+scheme, x); ok {
					n++
					pages += s.pages[p.Name]
				}
			}
		}
	}
	return n, pages
}

func sameGrid(a, b *expt.Grid) bool {
	sa, sb := a.Series(), b.Series()
	if len(sa) != len(sb) {
		return false
	}
	for _, series := range sa {
		for _, x := range a.XVals {
			va, oka := a.Get(series, x)
			vb, okb := b.Get(series, x)
			if oka != okb || math.Float64bits(va) != math.Float64bits(vb) {
				return false
			}
		}
	}
	return true
}

// gridFidelity summarizes a Fig8 grid as the sweep's simulated results: the
// mean response time and SDRPP averaged over the DLOOP cells, the 99th
// percentile (nearest rank) of every cell's mean response time, and DLOOP's
// mean improvement over DFTL from expt.Headline.
func gridFidelity(mrt, sdrpp *expt.Grid) fidelity {
	var f fidelity
	var all []float64
	var n int
	for _, series := range mrt.Series() {
		for _, x := range mrt.XVals {
			v, ok := mrt.Get(series, x)
			if !ok {
				continue
			}
			all = append(all, v)
			if strings.HasSuffix(series, "/"+ssd.SchemeDLOOP) {
				sd, _ := sdrpp.Get(series, x)
				f.meanMs += v
				f.sdrpp += sd
				n++
			}
		}
	}
	if n > 0 {
		f.meanMs /= float64(n)
		f.sdrpp /= float64(n)
	}
	if len(all) > 0 {
		sort.Float64s(all)
		top := all[int(math.Ceil(0.99*float64(len(all))))-1:]
		for _, v := range top {
			f.tailMs += v
		}
		f.tailMs /= float64(len(top))
	}
	h := expt.Headline(mrt)
	var m int
	for _, x := range h.XVals {
		if v, ok := h.Get("vs "+ssd.SchemeDFTL, x); ok {
			f.gain += v
			m++
		}
	}
	if m > 0 {
		f.gain /= float64(m)
	}
	return f
}

// cellCounters folds the simulated GC pauses and queue waits of the cells'
// metrics documents (written by Options.MetricsDir) into layer, as means
// over every pause and every queued operation of the sweep.
func cellCounters(dir string, layer map[string]float64) error {
	files, err := filepath.Glob(filepath.Join(dir, "*.metrics.json"))
	if err != nil {
		return err
	}
	var pauseSum, waitSum float64
	var pauseN, waitN int64
	for _, f := range files {
		data, err := os.ReadFile(f)
		if err != nil {
			return err
		}
		var snap obs.RegistrySnapshot
		if err := json.Unmarshal(data, &snap); err != nil {
			return fmt.Errorf("%s: %w", f, err)
		}
		p, q := snap.Histograms["gc.pause"], snap.Histograms["lat.queue"]
		pauseSum += p.MeanMs * float64(p.N)
		pauseN += p.N
		waitSum += q.MeanMs * float64(q.N)
		waitN += q.N
	}
	if pauseN > 0 {
		layer["gc.pause_mean_ms"] = pauseSum / float64(pauseN)
	}
	if waitN > 0 {
		layer["sim.queue_wait_mean_ms"] = waitSum / float64(waitN)
	}
	return nil
}
