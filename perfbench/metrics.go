package main

import "fmt"

type metricDef struct{ name, unit string }

// endToEndMetrics are reported with --trace 0, on every workload.
var endToEndMetrics = []metricDef{
	{"host_ns_per_page", "ns"},
	{"cpu_ns_per_page", "ns"},
	{"wall_s", "s"},
	{"setup_s", "s"},
	{"peak_rss_mb", "MiB"},
	{"alloc_bytes_per_page", "B"},
	{"sim_mean_resp_ms", "ms"},
	{"sim_top1pct_resp_ms", "ms"},
	{"sim_sdrpp", "ln"},
}

// perLayerMetrics are reported with --trace 1, on every workload; a metric
// of a layer the workload does not exercise reads 0.
var perLayerMetrics = func() []metricDef {
	var defs []metricDef
	for _, l := range layers {
		defs = append(defs, metricDef{l + ".self_cpu_frac", "ratio"}, metricDef{l + ".self_ns_per_page", "ns/page"})
	}
	return append(defs, []metricDef{
		{"layers.cpu_sum_frac", "ratio"},
		{"obs.overhead_pct", "%"},
		{"trace.parse_ns_per_req", "ns/req"},
		{"workload.gen_ns_per_req", "ns/req"},
		{"ssd.precondition_share", "ratio"},
		{"ssd.backlog_ratio", "ratio"},
		{"ssd.saturated", "bool"},
		{"translate.cmt_hit_rate", "ratio"},
		{"translate.trans_reads_per_page", "count"},
		{"translate.trans_writes_per_page", "count"},
		{"translate.learned_hits", "count"},
		{"gc.runs_per_kpage", "count"},
		{"gc.moved_per_run", "count"},
		{"gc.copyback_frac", "ratio"},
		{"gc.parity_waste_per_kpage", "count"},
		{"gc.pause_mean_ms", "ms"},
		{"flash.write_amp", "ratio"},
		{"flash.erases_per_kpage", "count"},
		{"flash.plane_busy_frac", "ratio"},
		{"flash.bus_busy_frac", "ratio"},
		{"flash.channel_busy_frac", "ratio"},
		{"sim.queue_wait_mean_ms", "ms"},
		{"ssd.mq.doorbells_per_kpage", "count"},
		{"ssd.mq.ring_highwater", "count"},
		{"ssd.mq.shard_imbalance", "ratio"},
		{"expt.cache_hits", "count"},
		{"expt.cache_misses", "count"},
		{"expt.warmups", "count"},
		{"expt.forked_cells", "count"},
		{"ckpt.bytes_per_warmup", "B"},
		{"expt.cold_pass_warmup_frac", "ratio"},
		{"expt.dloop_gain_vs_dftl_pct", "%"},
	}...)
}()

// layerSumTolerance bounds how far the profiled CPU of all layers may fall
// from the process CPU getrusage reports for the same windows.
const layerSumTolerance = 0.15

// perLayer reports the traced run's metrics: CPU attribution and host times
// from the profiled repetitions, counters from the observed ones, and the
// tracing overhead from comparing the two.
func (b *bench) perLayer(rep *report, samples []sample, attr *attribution, counters map[string]float64) {
	var prof, obsd []sample
	for _, s := range samples {
		if s.mode == profiled {
			prof = append(prof, s)
		} else {
			obsd = append(obsd, s)
		}
	}
	vals := map[string]float64{}
	var sum int64
	for _, l := range layers {
		ns := attr.layerNs[l]
		sum += ns
		vals[l+".self_cpu_frac"] = float64(ns) / float64(attr.cpu.Nanoseconds())
		vals[l+".self_ns_per_page"] = float64(ns) / float64(attr.pages)
	}
	vals["layers.cpu_sum_frac"] = float64(sum) / float64(attr.cpu.Nanoseconds())
	if d := vals["layers.cpu_sum_frac"] - 1; d > layerSumTolerance || d < -layerSumTolerance {
		rep.correct = false
		rep.notes = append(rep.notes, fmt.Sprintf(
			"layer-sum check failed: layers account for %.3f of process CPU, tolerance ±%.2f",
			vals["layers.cpu_sum_frac"], layerSumTolerance))
	}
	medianOf := func(ss []sample, fn func(sample) float64) float64 {
		v := make([]float64, len(ss))
		for i, s := range ss {
			v[i] = fn(s)
		}
		return median(v)
	}
	vals["obs.overhead_pct"] = 100 * (medianOf(obsd, sample.nsPerPage)/medianOf(prof, sample.nsPerPage) - 1)
	vals["workload.gen_ns_per_req"] = medianOf(samples, func(s sample) float64 {
		return float64(s.cost.gen.Nanoseconds()) / float64(s.cost.genReqs)
	})
	vals["ssd.precondition_share"] = medianOf(samples, func(s sample) float64 {
		return s.cost.precondition.Seconds() / s.setup.Seconds()
	})
	for k, v := range counters {
		vals[k] = v
	}
	// The parse time is a host time: take it from the profiled repetitions,
	// where no collector inflates it.
	const parse = "trace.parse_ns_per_req"
	if _, ok := counters[parse]; ok {
		vals[parse] = medianOf(prof, func(s sample) float64 { return s.layer[parse] })
	}
	if vals["ssd.saturated"] != 0 {
		rep.notes = append(rep.notes, fmt.Sprintf(
			"SATURATED: backlog ratio %.2f > %.1f; mean response time grows with trace length",
			vals["ssd.backlog_ratio"], saturationRatio))
	}
	for _, m := range perLayerMetrics {
		rep.set(m.name, m.unit, vals[m.name])
	}
}
