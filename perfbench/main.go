// Command perfbench is the repository benchmark: it runs one named workload
// of the seadopt optimizer for a fixed wall-clock budget, checks every
// result, and prints the end-to-end metrics (or, with --trace 1, the
// per-layer metrics) as the last line of standard output:
//
//	{"correct": true, "attempted": N, "failed": 0, "metrics": {...}}
//
// Workloads (see BENCHMARK.json for why each exists):
//
//   - explore_ideal: in-process scalar branch-and-bound on a 16-core
//     heterogeneous platform, ideal fabric, one caller, Parallelism 1.
//   - pareto_noc: in-process 3-objective Pareto exploration on an 8-core
//     XY mesh, split over 2 benchmark-owned shard runners.
//   - served_store: the HTTP daemon in-process with an fsync'd job store,
//     driven by 2 closed-loop connections over loopback.
//
// Every workload is a closed loop over a job list that repeats in cycles of
// fixed composition; a run stops at the first cycle boundary after
// --seconds, so every run does whole cycles and the per-job metrics of two
// seeds describe the same mix.
package main

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"runtime"
	"sort"
	"strings"
)

func main() {
	os.Exit(run(os.Args[1:]))
}

func run(args []string) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	name := fs.String("workload", "", "workload: explore_ideal, pareto_noc or served_store")
	seed := fs.Int64("seed", 1, "workload seed: orders the job list and picks the served references")
	seconds := fs.Float64("seconds", 30, "timed-phase budget in seconds (rounded up to whole job cycles)")
	trace := fs.Int("trace", 0, "1 runs the traced pass and prints per-layer metrics")
	workdir := fs.String("workdir", ".bench_build", "directory for the job store and the span dump")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	w, ok := workloads[*name]
	if !ok {
		fmt.Fprintf(os.Stderr, "perfbench: unknown workload %q (want %s)\n", *name, strings.Join(workloadNames(), ", "))
		return 2
	}
	runtime.GOMAXPROCS(runtime.NumCPU())
	if err := os.MkdirAll(*workdir, 0o755); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	env := &env{seed: *seed, seconds: *seconds, workdir: *workdir, traced: *trace == 1, name: *name}
	var rep *report
	var err error
	if env.traced {
		rep, err = runTraced(w, env)
	} else {
		rep, err = runUntraced(w, env)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	rep.print(os.Stdout)
	return 0
}

func workloadNames() []string {
	names := make([]string, 0, len(workloads))
	for n := range workloads {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// metric is one reported value. Samples is the number of observations the
// value summarizes (jobs, setup repetitions, timed calls).
type metric struct {
	Name    string
	Value   float64
	Unit    string
	Samples int
}

// report is one run's outcome: the counts, the result digest and the
// metrics, printed as a human-readable table followed by the JSON line.
type report struct {
	workload  string
	attempted int
	failed    int
	digest    string
	notes     []string
	metrics   []metric
}

func (r *report) add(name string, value float64, unit string, samples int) {
	if math.IsNaN(value) || math.IsInf(value, 0) {
		r.notes = append(r.notes, fmt.Sprintf("%s is undefined (%v), reported as 0", name, value))
		value = 0
	}
	r.metrics = append(r.metrics, metric{Name: name, Value: value, Unit: unit, Samples: samples})
}

func (r *report) print(f *os.File) {
	fmt.Fprintf(f, "workload %s: %d jobs attempted, %d failed, result digest %s\n",
		r.workload, r.attempted, r.failed, r.digest)
	for _, n := range r.notes {
		fmt.Fprintln(f, "  note:", n)
	}
	for _, m := range r.metrics {
		fmt.Fprintf(f, "  %-34s %14.6g %-6s (n=%d)\n", m.Name, m.Value, m.Unit, m.Samples)
	}
	type jm struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	out := struct {
		Correct   bool          `json:"correct"`
		Attempted int           `json:"attempted"`
		Failed    int           `json:"failed"`
		Metrics   map[string]jm `json:"metrics"`
	}{Correct: r.failed == 0, Attempted: r.attempted, Failed: r.failed, Metrics: map[string]jm{}}
	for _, m := range r.metrics {
		out.Metrics[m.Name] = jm{Value: m.Value, Unit: m.Unit}
	}
	line, err := json.Marshal(out)
	if err != nil {
		panic(err) // plain floats and strings always marshal
	}
	fmt.Fprintln(f, string(line))
}

// digestOf folds per-job result hashes, in job order, into one hex digest.
func digestOf(hashes [][32]byte) string {
	h := sha256.New()
	for _, x := range hashes {
		h.Write(x[:])
	}
	return hex.EncodeToString(h.Sum(nil))[:16]
}
