package main

import (
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"sync"
	"syscall"
	"time"
)

// A run sets its workload up at least setupReps times and for at least
// setupSeconds; setup_s reports the median. Spreading the repetitions over
// seconds keeps a short load burst on the host from moving the metric,
// which matters most for the served daemon's 20-ms set-up.
const (
	setupReps    = 9
	setupSeconds = 2.0
)

// maxTimedSeconds caps a timed phase whatever --seconds asks for, even in
// mid-cycle, so a run with hanging jobs still exits inside 180 seconds.
const maxTimedSeconds = 100

// env carries the command-line settings every workload sees.
type env struct {
	name    string
	seed    int64
	seconds float64
	workdir string
	traced  bool
}

// outcome is one job's result as the closed loop sees it.
type outcome struct {
	latency float64  // seconds, start of the call to received result bytes
	hash    [32]byte // SHA-256 of the result bytes
	err     error    // failed, rejected, timed out or check failed
}

// instance is one set-up workload, ready to run jobs. Job i is position
// i%cycle of cycle i/cycle; the job list is unbounded.
type instance interface {
	// warm runs the untimed warm-up job that ends set-up.
	warm() error
	// do runs job i and checks its result. tr is nil outside traced
	// phases.
	do(i int, tr *tracer) outcome
	// verify runs the checks that need the whole phase (byte equality
	// against in-process references); it returns the number of jobs whose
	// check failed and one line describing what was checked.
	verify(ph *phase) (int, string)
	close()
}

// workload describes how to set up and drive one named workload.
type workload struct {
	conns int // closed-loop connections (callers)
	// rssAt is the job index at which rss_peak_mb is read, so the metric
	// covers the same work on every run however many jobs the run fits;
	// the served daemon's memory grows with the jobs it retains.
	rssAt int
	// repeatCycles says every cycle re-runs the same jobs, so their result
	// bytes must repeat exactly.
	repeatCycles bool
	setup        func(e *env) (inst instance, cycle int, err error)
	// layers computes the per-layer metrics after the traced phase.
	layers func(inst instance, e *env, ph *phase) (map[string]float64, error)
}

var workloads = map[string]*workload{
	"explore_ideal": exploreWorkload,
	"pareto_noc":    paretoWorkload,
	"served_store":  servedWorkload,
}

// phase is one timed closed-loop pass.
type phase struct {
	cycle   int
	jobs    []outcome
	elapsed float64 // seconds
	cpu     float64 // process user+sys seconds
	alloc   uint64  // bytes allocated (runtime TotalAlloc delta)
	spans   *tracer
	rss     float64 // peak RSS in MiB when job rssAt started
}

// ok counts the jobs that finished without failing.
func (ph *phase) ok() int {
	n := 0
	for _, o := range ph.jobs {
		if o.err == nil {
			n++
		}
	}
	return n
}

func (ph *phase) failed() int { return len(ph.jobs) - ph.ok() }

// latencies returns per-job latencies. A failed job misses every latency
// limit, so it counts as maxTimedSeconds, longer than any job can run.
func (ph *phase) latencies() []float64 {
	out := make([]float64, len(ph.jobs))
	for i, o := range ph.jobs {
		out[i] = o.latency
		if o.err != nil {
			out[i] = maxTimedSeconds
		}
	}
	return out
}

// checkCycles marks jobs whose result differs from the same position of
// the first cycle; used where every cycle repeats the same jobs.
func (ph *phase) checkCycles() {
	for i := ph.cycle; i < len(ph.jobs); i++ {
		ref := ph.jobs[i%ph.cycle]
		if ph.jobs[i].err == nil && ref.err == nil && ph.jobs[i].hash != ref.hash {
			ph.jobs[i].err = fmt.Errorf("job %d: result differs from cycle 0", i)
		}
	}
}

// digest covers the first cycle's results, which every run completes.
func (ph *phase) digest() string {
	hashes := make([][32]byte, 0, ph.cycle)
	for _, o := range ph.jobs[:min(ph.cycle, len(ph.jobs))] {
		hashes = append(hashes, o.hash)
	}
	return digestOf(hashes)
}

// cpuSeconds is the process's user+sys CPU time so far.
func cpuSeconds() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	tv := func(t syscall.Timeval) float64 { return float64(t.Sec) + float64(t.Usec)/1e6 }
	return tv(ru.Utime) + tv(ru.Stime)
}

// peakRSSMB is the process's peak resident set size (VmHWM) in MiB.
func peakRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024 // Linux reports KiB
}

func totalAlloc() uint64 {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.TotalAlloc
}

// timed runs the closed loop: conns callers take job indices in order, and
// no new cycle starts once seconds have elapsed.
func timed(inst instance, conns, cycle, rssAt int, seconds float64, tr *tracer) *phase {
	runtime.GC()
	ph := &phase{cycle: cycle, spans: tr}
	var (
		mu      sync.Mutex
		next    int
		stopped bool
	)
	start := time.Now()
	take := func() (int, bool) {
		mu.Lock()
		defer mu.Unlock()
		if stopped {
			return 0, false
		}
		el := time.Since(start).Seconds()
		if el >= maxTimedSeconds || (next%cycle == 0 && next > 0 && el >= seconds) {
			stopped = true
			return 0, false
		}
		i := next
		next++
		if i == rssAt {
			ph.rss = peakRSSMB()
		}
		ph.jobs = append(ph.jobs, outcome{})
		return i, true
	}
	cpu0, alloc0 := cpuSeconds(), totalAlloc()
	var wg sync.WaitGroup
	for c := 0; c < conns; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i, ok := take()
				if !ok {
					return
				}
				o := inst.do(i, tr)
				mu.Lock()
				ph.jobs[i] = o
				mu.Unlock()
			}
		}()
	}
	wg.Wait()
	ph.elapsed = time.Since(start).Seconds()
	ph.cpu = cpuSeconds() - cpu0
	ph.alloc = totalAlloc() - alloc0
	if ph.rss == 0 {
		ph.rss = peakRSSMB()
	}
	return ph
}

// setUp runs the workload's set-up at least reps times and for at least
// minSeconds, and returns the last instance with the median set-up time.
// Each repetition covers job-list generation and validation, building the
// systems or daemon, and the warm-up job.
func setUp(w *workload, e *env, reps int, minSeconds float64) (instance, int, float64, int, error) {
	var (
		inst  instance
		cycle int
		times []float64
	)
	first := time.Now()
	for len(times) < reps || time.Since(first).Seconds() < minSeconds {
		if inst != nil {
			inst.close()
		}
		runtime.GC()
		t0 := time.Now()
		var err error
		inst, cycle, err = w.setup(e)
		if err != nil {
			return nil, 0, 0, 0, err
		}
		if err := inst.warm(); err != nil {
			inst.close()
			return nil, 0, 0, 0, fmt.Errorf("warm-up job: %w", err)
		}
		times = append(times, time.Since(t0).Seconds())
	}
	return inst, cycle, median(times), len(times), nil
}

func runUntraced(w *workload, e *env) (*report, error) {
	inst, cycle, setupS, setupN, err := setUp(w, e, setupReps, setupSeconds)
	if err != nil {
		return nil, err
	}
	defer inst.close()
	ph := timed(inst, w.conns, cycle, w.rssAt, e.seconds, nil)
	if w.repeatCycles {
		ph.checkCycles()
	}
	checkFailed, checkNote := inst.verify(ph)
	rep := &report{workload: e.name, attempted: len(ph.jobs), digest: ph.digest(), notes: []string{checkNote}}
	rep.failed = ph.failed() + checkFailed
	n := len(ph.jobs)
	lat := ph.latencies()
	rep.add("setup_s", setupS, "s", setupN)
	rep.add("jobs_per_s", float64(ph.ok())/ph.elapsed, "1/s", n)
	rep.add("latency_p50_s", quantile(lat, 0.5), "s", n)
	rep.add("latency_p90_s", quantile(lat, 0.9), "s", n)
	rep.add("cpu_s_per_job", ph.cpu/float64(n), "s", n)
	rep.add("alloc_mb_per_job", float64(ph.alloc)/float64(n)/(1<<20), "MB", n)
	rep.add("rss_peak_mb", ph.rss, "MB", 1)
	rep.notes = append(rep.notes, fmt.Sprintf("failed_frac %.4g (n=%d; failed, rejected, timed-out and check-failed jobs over attempted)",
		float64(rep.failed)/float64(n), n))
	return rep, nil
}

// runTraced runs an untraced and a traced half-length phase over the same
// job list and reports the per-layer metrics.
func runTraced(w *workload, e *env) (*report, error) {
	// Each phase gets its own instance, so the served workload's second
	// pass meets an empty result cache just like the first.
	plainInst, cycle, _, _, err := setUp(w, e, 1, 0)
	if err != nil {
		return nil, err
	}
	plain := timed(plainInst, w.conns, cycle, w.rssAt, e.seconds/2, nil)
	plainInst.close()
	inst, cycle, _, _, err := setUp(w, e, 1, 0)
	if err != nil {
		return nil, err
	}
	defer inst.close()
	tr := newTracer()
	ph := timed(inst, w.conns, cycle, w.rssAt, e.seconds/2, tr)
	if w.repeatCycles {
		plain.checkCycles()
		ph.checkCycles()
	}
	checkFailed, checkNote := inst.verify(ph)
	vals, err := w.layers(inst, e, ph)
	if err != nil {
		return nil, err
	}
	plainRate := float64(plain.ok()) / plain.elapsed
	tracedRate := float64(ph.ok()) / ph.elapsed
	vals["trace.overhead_frac"] = 1 - tracedRate/plainRate
	rep := &report{workload: e.name, attempted: len(plain.jobs) + len(ph.jobs), digest: ph.digest(), notes: []string{checkNote}}
	rep.failed = plain.failed() + ph.failed() + checkFailed
	for _, l := range layerMetrics {
		rep.add(l.name, vals[l.name], l.unit, len(ph.jobs))
	}
	path := filepath.Join(e.workdir, fmt.Sprintf("spans-%s-%d.json", e.name, e.seed))
	if err := tr.write(path); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench: writing spans:", err)
	} else {
		rep.notes = append(rep.notes, fmt.Sprintf("%d spans written to %s", tr.len(), path))
	}
	return rep, nil
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

// quantile is the nearest-rank quantile of xs (q in (0,1]); xs is not
// modified.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	k := int(math.Ceil(q*float64(len(s)))) - 1
	if k < 0 {
		k = 0
	}
	return s[k]
}

// mean returns the arithmetic mean of xs, 0 for none.
func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	t := 0.0
	for _, x := range xs {
		t += x
	}
	return t / float64(len(xs))
}
