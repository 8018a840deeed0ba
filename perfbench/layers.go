package main

import (
	"encoding/json"
	"math/rand"
	"os"
	"runtime"
	"sync"
	"time"

	"seadopt"
	"seadopt/internal/arch"
	"seadopt/internal/faults"
	"seadopt/internal/ingest"
	"seadopt/internal/metrics"
	"seadopt/internal/sched"
	"seadopt/internal/taskgraph"
)

// layerMetrics lists every per-layer metric a traced run prints, in order.
// A layer a workload does not exercise reads 0 on that workload.
var layerMetrics = []struct{ name, unit string }{
	{"vscale.combos_per_job", "count"},
	{"mapping.pruned_frac", "frac"},
	{"mapping.mapper_spared_frac", "frac"},
	{"mapping.probe_s_per_job", "s"},
	{"mapping.probe_hit_frac", "frac"},
	{"mapping.mapper_s_per_job", "s"},
	{"mapping.mapper_runs_per_job", "count"},
	{"mapping.fold_s_per_job", "s"},
	{"mapping.enum_s_per_job", "s"},
	{"metrics.bounds_s_per_job", "s"},
	{"metrics.makespans_per_job", "count"},
	{"metrics.evaluations_per_job", "count"},
	{"metrics.delta_patched_frac", "frac"},
	{"pareto.frontier_size", "count"},
	{"sched.schedule_us", "us"},
	{"sched.schedule_allocs", "count"},
	{"metrics.makespan_us", "us"},
	{"metrics.evaluate_us", "us"},
	{"metrics.evaluate_delta_us", "us"},
	{"metrics.bound_advance_ns", "ns"},
	{"ledger.residual_frac", "frac"},
	{"mapping.shard_busy_s_per_job", "s"},
	{"mapping.shard_imbalance", "ratio"},
	{"mapping.replay_s_per_job", "s"},
	{"service.submit_s", "s"},
	{"service.queue_wait_s", "s"},
	{"service.run_s", "s"},
	{"service.overhead_s", "s"},
	{"service.cache_hit_frac", "frac"},
	{"service.warm_start_frac", "frac"},
	{"service.journal_bytes_per_job", "bytes"},
	{"service.rejected_frac", "frac"},
	{"ingest.parse_ms", "ms"},
	{"ingest.key_ms", "ms"},
	{"trace.overhead_frac", "frac"},
}

// tracer keeps the benchmark's spans in memory; they are written out once
// the run ends. Spans of one job share its index.
type tracer struct {
	mu    sync.Mutex
	base  time.Time
	spans []span
}

type span struct {
	Job     int    `json:"job"`
	Name    string `json:"name"`
	Parent  string `json:"parent,omitempty"`
	StartNs int64  `json:"start_ns"`
	EndNs   int64  `json:"end_ns"`
}

func newTracer() *tracer { return &tracer{base: time.Now()} }

func (t *tracer) add(job int, name, parent string, start, end time.Time) {
	t.mu.Lock()
	t.spans = append(t.spans, span{Job: job, Name: name, Parent: parent,
		StartNs: start.Sub(t.base).Nanoseconds(), EndNs: end.Sub(t.base).Nanoseconds()})
	t.mu.Unlock()
}

func (t *tracer) len() int {
	t.mu.Lock()
	defer t.mu.Unlock()
	return len(t.spans)
}

func (t *tracer) write(path string) error {
	t.mu.Lock()
	defer t.mu.Unlock()
	data, err := json.Marshal(t.spans)
	if err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}

// statsSum accumulates the engine's ExploreStats telemetry over jobs.
type statsSum struct {
	mu                                          sync.Mutex
	jobs                                        int
	combos, pruned, mapperRuns, spared          int64
	probeNs, mapperNs, foldNs, enumNs, boundsNs int64
	makespans, evals, patched, rescheduled      int64
	hits, misses                                int64
}

func (s *statsSum) add(st *seadopt.ExploreStats) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.jobs++
	s.combos += st.Combos.Total
	s.pruned += st.Combos.Pruned
	s.mapperRuns += st.Combos.MapperRuns
	s.spared += st.Combos.MapperSpared
	s.probeNs += st.Phases.ProbeNanos
	s.mapperNs += st.Phases.MapperNanos
	s.foldNs += st.Phases.FoldNanos
	s.enumNs += st.Phases.EnumerationNanos
	s.boundsNs += st.Phases.BoundsNanos
	s.makespans += st.Eval.Makespans
	s.evals += st.Eval.Evaluations
	s.patched += st.Eval.DeltaPatched
	s.rescheduled += st.Eval.DeltaRescheduled
	s.hits += st.ProbeCache.Hits
	s.misses += st.ProbeCache.Misses
}

func (s *statsSum) merge(o *statsSum) {
	o.mu.Lock()
	defer o.mu.Unlock()
	s.mu.Lock()
	defer s.mu.Unlock()
	s.jobs += o.jobs
	s.combos += o.combos
	s.pruned += o.pruned
	s.mapperRuns += o.mapperRuns
	s.spared += o.spared
	s.probeNs += o.probeNs
	s.mapperNs += o.mapperNs
	s.foldNs += o.foldNs
	s.enumNs += o.enumNs
	s.boundsNs += o.boundsNs
	s.makespans += o.makespans
	s.evals += o.evals
	s.patched += o.patched
	s.rescheduled += o.rescheduled
	s.hits += o.hits
	s.misses += o.misses
}

// into writes the per-job telemetry metrics into vals.
func (s *statsSum) into(vals map[string]float64) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.jobs == 0 {
		return
	}
	n := float64(s.jobs)
	sec := func(ns int64) float64 { return float64(ns) / 1e9 / n }
	vals["vscale.combos_per_job"] = float64(s.combos) / n
	vals["mapping.pruned_frac"] = frac(s.pruned, s.combos)
	vals["mapping.mapper_spared_frac"] = frac(s.spared, s.mapperRuns+s.spared)
	vals["mapping.probe_s_per_job"] = sec(s.probeNs)
	vals["mapping.probe_hit_frac"] = frac(s.hits, s.hits+s.misses)
	vals["mapping.mapper_s_per_job"] = sec(s.mapperNs)
	vals["mapping.mapper_runs_per_job"] = float64(s.mapperRuns) / n
	vals["mapping.fold_s_per_job"] = sec(s.foldNs)
	vals["mapping.enum_s_per_job"] = sec(s.enumNs)
	vals["metrics.bounds_s_per_job"] = sec(s.boundsNs)
	vals["metrics.makespans_per_job"] = float64(s.makespans) / n
	vals["metrics.evaluations_per_job"] = float64(s.evals) / n
	vals["metrics.delta_patched_frac"] = frac(s.patched, s.patched+s.rescheduled)
}

// explained is the per-job time the ledger attributes to timed layer
// calls: counts from telemetry times per-call costs, plus the bounds
// precompute the telemetry clocks directly.
func (s *statsSum) explained(c callCosts) float64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.jobs == 0 {
		return 0
	}
	t := float64(s.makespans)*c.makespanUs*1e-6 +
		float64(s.evals)*c.evaluateUs*1e-6 +
		float64(s.patched)*c.deltaUs*1e-6 +
		float64(s.combos)*c.advanceNs*1e-9 +
		float64(s.boundsNs)*1e-9
	return t / float64(s.jobs)
}

func frac(a, b int64) float64 {
	if b == 0 {
		return 0
	}
	return float64(a) / float64(b)
}

// callCosts are per-call costs of the scheduler and evaluator layers,
// timed by the benchmark over seeded random mapping walks.
type callCosts struct {
	scheduleUs, scheduleAllocs float64
	makespanUs, evaluateUs     float64
	deltaUs, advanceNs         float64
}

// walkCalls is the number of calls each per-call measurement times.
const walkCalls = 1500

// measureCalls times Scheduler.Schedule, Evaluator.{Makespan,Evaluate,
// EvaluateDelta} and Bounds.Cursor().Advance on one graph and platform.
// The mapping walk moves one random task to a random core per call, the
// way the mapper's hill climb does.
func measureCalls(g *taskgraph.Graph, p *arch.Platform, iterations int, deadline float64, rng *rand.Rand) (callCosts, error) {
	var c callCosts
	sys, err := seadopt.NewSystem(g, p)
	if err != nil {
		return c, err
	}
	combos, err := sys.ScalingCombinations()
	if err != nil {
		return c, err
	}
	scaling := combos[rng.Intn(len(combos))]
	n, cores := g.N(), p.Cores()
	m := sched.RandomMapping(rng, n, cores)
	moves := make([][2]int, walkCalls)
	for i := range moves {
		moves[i] = [2]int{rng.Intn(n), rng.Intn(cores)}
	}
	walk := func(call func(sched.Mapping) error) (float64, float64, error) {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		t0 := time.Now()
		for _, mv := range moves {
			m[mv[0]] = mv[1]
			if err := call(m); err != nil {
				return 0, 0, err
			}
		}
		el := time.Since(t0).Seconds()
		runtime.ReadMemStats(&after)
		return el / walkCalls * 1e6, float64(after.Mallocs-before.Mallocs) / walkCalls, nil
	}

	sch := sched.NewScheduler(g, p)
	if err := sch.Bind(scaling); err != nil {
		return c, err
	}
	if c.scheduleUs, c.scheduleAllocs, err = walk(func(m sched.Mapping) error {
		_, err := sch.Schedule(m)
		return err
	}); err != nil {
		return c, err
	}
	ev, err := metrics.NewEvaluator(g, p, faults.NewSERModel(faults.DefaultSER),
		metrics.Options{Iterations: iterations, DeadlineSec: deadline})
	if err != nil {
		return c, err
	}
	if err := ev.Bind(scaling); err != nil {
		return c, err
	}
	if c.makespanUs, _, err = walk(func(m sched.Mapping) error {
		_, _, err := ev.Makespan(m)
		return err
	}); err != nil {
		return c, err
	}
	if c.evaluateUs, _, err = walk(func(m sched.Mapping) error {
		_, err := ev.Evaluate(m)
		return err
	}); err != nil {
		return c, err
	}

	// EvaluateDelta: keep the last mapping, move one random core to a
	// random level of its own table per call.
	if _, err := ev.Evaluate(m); err != nil {
		return c, err
	}
	prev := append([]int(nil), scaling...)
	next := append([]int(nil), scaling...)
	steps := make([][2]int, walkCalls)
	for i := range steps {
		core := rng.Intn(cores)
		steps[i] = [2]int{core, 1 + rng.Intn(p.CoreNumLevels(core))}
	}
	t0 := time.Now()
	for _, st := range steps {
		next[st[0]] = st[1]
		if _, err := ev.EvaluateDelta(prev, next); err != nil {
			return c, err
		}
		prev[st[0]] = st[1]
	}
	c.deltaUs = time.Since(t0).Seconds() / walkCalls * 1e6

	// Cursor advances over the enumeration order, as the dispatcher walks it.
	cu := metrics.NewBounds(g, p, iterations).Cursor()
	advances := 0
	t0 = time.Now()
	for advances < 20*walkCalls {
		for _, s := range combos {
			if _, err := cu.Advance(s); err != nil {
				return c, err
			}
		}
		advances += len(combos)
	}
	c.advanceNs = float64(time.Since(t0).Nanoseconds()) / float64(advances)
	return c, nil
}

// meanCosts averages per-call costs over several graphs.
func meanCosts(cs []callCosts) callCosts {
	var m callCosts
	for _, c := range cs {
		m.scheduleUs += c.scheduleUs
		m.scheduleAllocs += c.scheduleAllocs
		m.makespanUs += c.makespanUs
		m.evaluateUs += c.evaluateUs
		m.deltaUs += c.deltaUs
		m.advanceNs += c.advanceNs
	}
	n := float64(len(cs))
	m.scheduleUs /= n
	m.scheduleAllocs /= n
	m.makespanUs /= n
	m.evaluateUs /= n
	m.deltaUs /= n
	m.advanceNs /= n
	return m
}

func (c callCosts) into(vals map[string]float64) {
	vals["sched.schedule_us"] = c.scheduleUs
	vals["sched.schedule_allocs"] = c.scheduleAllocs
	vals["metrics.makespan_us"] = c.makespanUs
	vals["metrics.evaluate_us"] = c.evaluateUs
	vals["metrics.evaluate_delta_us"] = c.deltaUs
	vals["metrics.bound_advance_ns"] = c.advanceNs
}

// parseCalls is how many times each document is parsed and keyed.
const parseCalls = 20

// measureIngest times ingest.ParseBytes and Problem.Key (canonical
// encoding plus SHA-256) per document, in milliseconds.
func measureIngest(docs []graphDoc, p *arch.Platform, o ingest.Options) (parseMs, keyMs float64, err error) {
	var parseS, keyS float64
	for _, d := range docs {
		t0 := time.Now()
		var g *taskgraph.Graph
		for k := 0; k < parseCalls; k++ {
			if g, err = ingest.ParseBytes(d.format, d.data); err != nil {
				return 0, 0, err
			}
		}
		parseS += time.Since(t0).Seconds()
		prob := &ingest.Problem{Graph: g, Platform: p, Options: o}
		t0 = time.Now()
		for k := 0; k < parseCalls; k++ {
			if _, err = prob.Key(); err != nil {
				return 0, 0, err
			}
		}
		keyS += time.Since(t0).Seconds()
	}
	n := float64(len(docs) * parseCalls)
	return parseS / n * 1e3, keyS / n * 1e3, nil
}
