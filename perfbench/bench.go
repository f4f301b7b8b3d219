package main

import (
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"runtime/metrics"
	"sort"
	"strings"
	"syscall"
	"time"
)

// scenario is one benchmark workload.
type scenario interface {
	// setup builds a fresh instance from the seed: input generation, ssd.Build
	// and preconditioning. Everything it does is set-up time. dir is a
	// scratch directory inside the checkout.
	setup(seed int64, dir string, sp *spans) (instance, setupCost, error)
}

// instance is one set-up simulator (or sweep) ready to measure.
type instance interface {
	// measure runs the measured phase once, instrumented as m says, and
	// fills outcome.layer with the per-layer figures that mode yields.
	measure(sp *spans, m mode) outcome
	close()
}

// mode is how a repetition is instrumented.
type mode int

const (
	// plain attaches nothing: the end-to-end run.
	plain mode = iota
	// profiled runs under the CPU profiler and times the trace parser: the
	// layer attribution.
	profiled
	// observed runs under the CPU profiler with an obs collector attached
	// and the latency stream recorded: the layer counters, and against
	// profiled the tracing overhead.
	observed
)

// setupCost splits one set-up into the layer calls the benchmark timed.
type setupCost struct {
	genReqs      int64         // requests workload.Generate produced
	gen          time.Duration // time in workload.Generate
	precondition time.Duration // time in PreconditionBytes
}

// fidelity holds the simulated (not host) results. With a fixed seed they
// must repeat bit for bit across repetitions and runs.
type fidelity struct {
	meanMs, tailMs, sdrpp float64
	gain                  float64 // paper-sweep: DLOOP's mean gain over DFTL, %
}

// outcome is what one measured phase did.
type outcome struct {
	attempted int64 // requests issued
	served    int64 // requests the simulator reports served
	pages     int64 // host page operations served (PagesRead+PagesWrit)
	sim       fidelity
	problems  []string           // failed output checks
	layer     map[string]float64 // per-layer figures
	err       error              // the measured call aborted
}

// sample is the host cost of one repetition.
type sample struct {
	setup   time.Duration
	cost    setupCost
	wall    time.Duration
	cpu     time.Duration
	alloc   uint64
	pages   int64
	peakRSS float64 // MiB over set-up and measured phase
	mode    mode
	layer   map[string]float64
}

func (s sample) nsPerPage() float64 { return float64(s.wall.Nanoseconds()) / float64(s.pages) }

type bench struct {
	name   string
	w      scenario
	seed   int64
	traced bool
	budget time.Duration
	dir    string
	env    map[string]any
}

// run repeats set-up and measured phase until the budget is spent (and at
// least minReps times per mode), then aggregates. In a traced run the
// repetitions alternate profiled and observed, so the tracing overhead is
// measured on the same process and machine state.
func (b *bench) run() (*report, error) {
	rep := &report{correct: true, metrics: map[string]metric{}}
	sp := newSpans()
	attr := &attribution{layerNs: map[string]int64{}}
	var samples []sample
	var first *fidelity
	layer := map[string]float64{}
	need := minReps
	if b.traced {
		need = 2 * minReps
	}
	start := time.Now()
	for i := 0; i < need || time.Since(start) < b.budget; i++ {
		m := plain
		var rsp *spans
		if b.traced {
			m = profiled + mode(i%2)
			rsp = sp
			sp.run = fmt.Sprintf("%s-seed%d-rep%d", b.name, b.seed, i)
		}
		s, out, err := b.once(m, rsp, attr)
		if err != nil {
			return nil, err
		}
		rep.attempted += out.attempted
		if out.err != nil {
			rep.correct = false
			rep.failed += out.attempted - out.served
			rep.notes = append(rep.notes, fmt.Sprintf("rep %d: %v", i, out.err))
			break
		}
		if first == nil {
			first = &out.sim
		} else if !sameBits(*first, out.sim) {
			out.problems = append(out.problems, fmt.Sprintf(
				"sim results differ between repetitions of one seed: %+v vs %+v", *first, out.sim))
		}
		if len(out.problems) > 0 {
			// A failed output check fails the whole run.
			rep.correct = false
			rep.failed = rep.attempted
			for _, p := range out.problems {
				rep.notes = append(rep.notes, fmt.Sprintf("rep %d: check failed: %s", i, p))
			}
			break
		}
		s.pages = out.pages
		s.layer = out.layer
		samples = append(samples, s)
		for k, v := range out.layer {
			layer[k] = v
		}
		rep.repNsPerPage = append(rep.repNsPerPage, s.nsPerPage())
	}
	if len(samples) == 0 {
		rep.attempted = max(rep.attempted, 1)
		rep.failed = rep.attempted
		b.fillZeros(rep)
		return rep, nil
	}
	if b.traced {
		b.perLayer(rep, samples, attr, layer)
		path := filepath.Join(b.dir, fmt.Sprintf("spans-%s-seed%d.json", b.name, b.seed))
		if err := sp.write(path, b.env); err != nil {
			return nil, err
		}
	} else {
		b.endToEnd(rep, samples, *first)
	}
	return rep, nil
}

// once runs one repetition: a fresh set-up, then the measured phase.
func (b *bench) once(m mode, sp *spans, attr *attribution) (sample, outcome, error) {
	// Return the previous repetition's memory to the OS and restart the
	// peak-RSS mark, so every repetition starts from the same resident set.
	debug.FreeOSMemory()
	resetPeakRSS()
	t0 := time.Now()
	id := sp.begin("setup")
	inst, cost, err := b.w.setup(b.seed, b.dir, sp)
	sp.end(id)
	s := sample{setup: time.Since(t0), cost: cost, mode: m}
	if err != nil {
		return s, outcome{}, fmt.Errorf("%s set-up: %w", b.name, err)
	}
	defer inst.close()
	// Collect set-up garbage off the clock, so the measured phase pays only
	// for its own allocations.
	runtime.GC()
	cpu0 := processCPU()
	alloc0 := heapAllocated()
	if m != plain {
		if err := attr.start(); err != nil {
			return s, outcome{}, err
		}
	}
	t1 := time.Now()
	id = sp.begin("measure")
	out := inst.measure(sp, m)
	sp.end(id)
	s.wall = time.Since(t1)
	if m != plain {
		// Only the profiled repetitions are attributed: in the observed ones
		// the collector's own work would crowd out the layers it observes.
		if err := attr.stop(m == profiled); err != nil {
			return s, outcome{}, err
		}
	}
	s.cpu = processCPU() - cpu0
	// A collection flushes the per-P allocation caches, so the count is
	// exact rather than off by their unflushed spans.
	runtime.GC()
	s.alloc = heapAllocated() - alloc0
	s.peakRSS = peakRSSMiB()
	if m == profiled {
		attr.cpu += s.cpu
		attr.pages += out.pages
	}
	return s, out, nil
}

func sameBits(a, b fidelity) bool {
	return math.Float64bits(a.meanMs) == math.Float64bits(b.meanMs) &&
		math.Float64bits(a.tailMs) == math.Float64bits(b.tailMs) &&
		math.Float64bits(a.sdrpp) == math.Float64bits(b.sdrpp) &&
		math.Float64bits(a.gain) == math.Float64bits(b.gain)
}

// endToEnd reports the untraced metrics: medians over the repetitions.
func (b *bench) endToEnd(rep *report, samples []sample, f fidelity) {
	med := func(fn func(sample) float64) float64 {
		vals := make([]float64, len(samples))
		for i, s := range samples {
			vals[i] = fn(s)
		}
		return median(vals)
	}
	rep.set("host_ns_per_page", "ns", med(sample.nsPerPage))
	rep.set("cpu_ns_per_page", "ns", med(func(s sample) float64 { return float64(s.cpu.Nanoseconds()) / float64(s.pages) }))
	rep.set("wall_s", "s", med(func(s sample) float64 { return s.wall.Seconds() }))
	rep.set("setup_s", "s", med(func(s sample) float64 { return s.setup.Seconds() }))
	rep.set("peak_rss_mb", "MiB", med(func(s sample) float64 { return s.peakRSS }))
	rep.set("alloc_bytes_per_page", "B", med(func(s sample) float64 { return float64(s.alloc) / float64(s.pages) }))
	rep.set("sim_mean_resp_ms", "ms", f.meanMs)
	rep.set("sim_top1pct_resp_ms", "ms", f.tailMs)
	rep.set("sim_sdrpp", "ln", f.sdrpp)
}

// fillZeros reports every metric of the run's mode as 0 when no repetition
// completed; correct is already false then.
func (b *bench) fillZeros(rep *report) {
	list := endToEndMetrics
	if b.traced {
		list = perLayerMetrics
	}
	for _, m := range list {
		rep.set(m.name, m.unit, 0)
	}
}

func median(vals []float64) float64 {
	if len(vals) == 0 {
		return 0
	}
	s := append([]float64(nil), vals...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// processCPU returns the process's user+system CPU time. Getrusage on
// RUSAGE_SELF cannot fail with a valid pointer, so its error is dropped.
func processCPU() time.Duration {
	var ru syscall.Rusage
	_ = syscall.Getrusage(syscall.RUSAGE_SELF, &ru)
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// resetPeakRSS restarts the kernel's peak-RSS mark (VmHWM) of this process.
// Where that is unsupported the mark keeps the process-wide peak.
func resetPeakRSS() {
	if err := os.WriteFile("/proc/self/clear_refs", []byte("5"), 0); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench: peak RSS is process-wide:", err)
	}
}

// peakRSSMiB returns the peak resident set size since resetPeakRSS, or the
// process-wide peak from getrusage where /proc is unavailable.
func peakRSSMiB() float64 {
	if data, err := os.ReadFile("/proc/self/status"); err == nil {
		for _, line := range strings.Split(string(data), "\n") {
			if v, ok := strings.CutPrefix(line, "VmHWM:"); ok {
				var kib float64
				if _, err := fmt.Sscanf(strings.TrimSpace(v), "%f kB", &kib); err == nil {
					return kib / 1024
				}
			}
		}
	}
	var ru syscall.Rusage
	_ = syscall.Getrusage(syscall.RUSAGE_SELF, &ru)
	return float64(ru.Maxrss) / 1024 // Linux reports KiB
}

var allocSample = []metrics.Sample{{Name: "/gc/heap/allocs:bytes"}}

// heapAllocated returns the cumulative bytes allocated on the heap.
func heapAllocated() uint64 {
	metrics.Read(allocSample)
	return allocSample[0].Value.Uint64()
}
