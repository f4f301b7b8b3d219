// Command perfbench is the repository benchmark. It runs one named workload
// through the simulator's public entry points for a fixed wall-clock budget,
// checks every output, and prints all metrics as one JSON object on the last
// line of standard output:
//
//	perfbench --workload gc-write --seed 42 --seconds 10 --trace 0
//
// With --trace 0 it reports the end-to-end metrics, measured with tracing
// off. With --trace 1 it alternates untraced and traced repetitions and
// reports the per-layer metrics: CPU-profile attribution per package layer,
// the counters the layers already expose, and the tracing overhead. The seed
// reaches only the input generators. README.md explains the workloads, the
// metrics and the fidelity-guard rule.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"sort"
	"strings"
	"time"
)

// minReps is the fewest repetitions a run makes, whatever --seconds says, so
// every reported median has at least that many samples behind it.
const minReps = 3

func main() {
	wl := flag.String("workload", "", "workload name: "+strings.Join(workloadNames(), ", "))
	seed := flag.Int64("seed", 42, "seed for the input generators")
	seconds := flag.Float64("seconds", 10, "wall-clock budget of the repetitions")
	traced := flag.Int("trace", 0, "0 = end-to-end metrics, 1 = per-layer metrics")
	scratch := flag.String("scratch", ".bench_build/scratch", "directory for generated trace files, warm-up caches and span dumps")
	flag.Parse()

	w, ok := workloads[*wl]
	if !ok || (*traced != 0 && *traced != 1) || *seconds <= 0 {
		fmt.Fprintf(os.Stderr, "perfbench: want --workload {%s} --seed N --seconds S --trace {0|1}\n",
			strings.Join(workloadNames(), "|"))
		os.Exit(2)
	}
	if runtime.GOMAXPROCS(0) > runtime.NumCPU() {
		runtime.GOMAXPROCS(runtime.NumCPU())
	}
	if err := os.MkdirAll(*scratch, 0o755); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	env := describeEnv()
	b := &bench{
		name: *wl, w: w, seed: *seed, traced: *traced == 1,
		budget: time.Duration(*seconds * float64(time.Second)),
		dir:    *scratch, env: env,
	}
	rep, err := b.run()
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	envLine, _ := json.Marshal(map[string]any{"env": env, "workload": *wl, "seed": *seed, "rep_ns_per_page": rep.repNsPerPage, "notes": rep.notes})
	fmt.Println(string(envLine))
	out, err := json.Marshal(rep.final())
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	fmt.Println(string(out))
}

func workloadNames() []string {
	names := make([]string, 0, len(workloads))
	for n := range workloads {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// metric is one reported figure.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// report is what a run prints: the result line plus the notes (saturation
// flags, failed checks) that go on the line before it.
type report struct {
	correct           bool
	attempted, failed int64
	metrics           map[string]metric
	repNsPerPage      []float64 // host ns per page of each completed repetition
	notes             []string
}

func (r *report) set(name, unit string, v float64) { r.metrics[name] = metric{Value: v, Unit: unit} }

func (r *report) final() map[string]any {
	return map[string]any{
		"correct":   r.correct,
		"attempted": r.attempted,
		"failed":    r.failed,
		"metrics":   r.metrics,
	}
}

// describeEnv records the machine a result was measured on.
func describeEnv() map[string]any {
	model := "unknown"
	if data, err := os.ReadFile("/proc/cpuinfo"); err == nil {
		for _, line := range strings.Split(string(data), "\n") {
			if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
				model = strings.TrimSpace(v)
				break
			}
		}
	}
	return map[string]any{
		"nproc":      runtime.NumCPU(),
		"gomaxprocs": runtime.GOMAXPROCS(0),
		"cpu_model":  model,
		"go_version": runtime.Version(),
		"goos":       runtime.GOOS,
		"goarch":     runtime.GOARCH,
	}
}
