package main

import (
	"dloop/internal/flash"
	"dloop/internal/obs"
	"dloop/internal/sim"
	"dloop/internal/ssd"
)

// saturationRatio is the backlog ratio above which a workload is flagged
// saturated: requests at the end of the window waited that many times
// longer than those at the start, so the open-loop arrivals outran the
// simulated device and mean response time measures trace length, not the
// FTL.
const saturationRatio = 2.0

// simCounters reads the per-layer counters a traced measured phase exposes:
// the controller's Result, the collector's registry, the devices' busy
// times, and the latency stream from SetLatencyHook.
func simCounters(c *ssd.Controller, res ssd.Result, snap obs.RegistrySnapshot, lat []sim.Duration) map[string]float64 {
	pages := float64(res.PagesRead + res.PagesWrit)
	per := func(n int64) float64 { return float64(n) / pages }
	m := map[string]float64{
		"translate.cmt_hit_rate":          res.CMTHitRate,
		"translate.trans_reads_per_page":  per(res.TransReads),
		"translate.trans_writes_per_page": per(res.TransWrites),
		"translate.learned_hits":          float64(res.LearnedHits),
		"gc.runs_per_kpage":               1000 * per(res.GCRuns),
		"gc.parity_waste_per_kpage":       1000 * per(res.WastedPages),
		"gc.pause_mean_ms":                snap.Histograms["gc.pause"].MeanMs,
		"flash.erases_per_kpage":          1000 * per(res.Erases),
		"sim.queue_wait_mean_ms":          snap.Histograms["lat.queue"].MeanMs,
	}
	if moved := res.GCCopyBacks + res.GCExternalMoves; moved > 0 {
		m["gc.copyback_frac"] = float64(res.GCCopyBacks) / float64(moved)
		if res.GCRuns > 0 {
			m["gc.moved_per_run"] = float64(moved) / float64(res.GCRuns)
		}
	}
	if res.PagesWrit > 0 {
		m["flash.write_amp"] = float64(res.Writes+res.CopyBacks) / float64(res.PagesWrit)
	}
	if res.SimulatedS > 0 {
		var devs []*flash.Device
		for i := 0; i < c.FTLShards(); i++ {
			devs = append(devs, c.ShardDevice(i))
		}
		planes, buses, chans := busyFractions(devs, res.SimulatedS)
		m["flash.plane_busy_frac"] = planes
		m["flash.bus_busy_frac"] = buses
		m["flash.channel_busy_frac"] = chans
	}
	if c.FTLShards() > 1 {
		m["ssd.mq.doorbells_per_kpage"] = 1000 * per(snap.Counters["mq.doorbells"])
		m["ssd.mq.ring_highwater"] = snap.Gauges["mq.ring.highwater"]
		if v := snap.Vectors["mq.shard.pages"].Values; len(v) > 0 {
			var sum, hi int64
			for _, p := range v {
				sum += p
				hi = max(hi, p)
			}
			if sum > 0 {
				m["ssd.mq.shard_imbalance"] = float64(hi) * float64(len(v)) / float64(sum)
			}
		}
	}
	ratio := backlogRatio(lat)
	m["ssd.backlog_ratio"] = ratio
	if ratio > saturationRatio {
		m["ssd.saturated"] = 1
	}
	return m
}

// busyFractions averages each resource class's busy time over the simulated
// window, across every (shard) device.
func busyFractions(devs []*flash.Device, simulatedS float64) (planes, buses, chans float64) {
	var sums [3]float64
	var counts [3]int
	for _, d := range devs {
		p, b, ch := d.BusyTimes()
		for k, ds := range [][]sim.Duration{p, b, ch} {
			for _, x := range ds {
				sums[k] += x.Seconds()
				counts[k]++
			}
		}
	}
	frac := func(k int) float64 {
		if counts[k] == 0 {
			return 0
		}
		return sums[k] / float64(counts[k]) / simulatedS
	}
	return frac(0), frac(1), frac(2)
}

// backlogRatio is the mean response time of the last quarter of requests
// over that of the first quarter, in arrival order.
func backlogRatio(lat []sim.Duration) float64 {
	q := len(lat) / 4
	if q == 0 {
		return 0
	}
	mean := func(ds []sim.Duration) float64 {
		var s float64
		for _, d := range ds {
			s += float64(d)
		}
		return s / float64(len(ds))
	}
	first := mean(lat[:q])
	if first == 0 {
		return 0
	}
	return mean(lat[len(lat)-q:]) / first
}
