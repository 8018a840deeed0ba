package main

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/json"
	"fmt"
	"math/rand"
	"time"

	"seadopt"
	"seadopt/internal/ingest"
	"seadopt/internal/taskgraph"
)

// explore_ideal: scalar branch-and-bound in-process, one caller,
// Parallelism 1, on 60-task width-16 §V graphs over 12 eff + 4 perf ARM7
// cores (455 scaling combinations) with the ideal fabric. The deadline is
// RandomGraphDeadline(60)/5: at /6 a job averages 0.54 s on a 2-core
// Xeon, too long for 100 jobs per run; at /5 every pool graph stays
// feasible and a job averages 0.12 s.
const (
	exploreTasks       = 60
	exploreWidth       = 16
	explorePool        = 48
	exploreDeadlineDiv = 5
	exploreMoves       = 200
)

var exploreWorkload = &workload{
	rssAt:        96,
	conns:        1,
	repeatCycles: true,
	setup:        func(e *env) (instance, int, error) { return newExplore(e.seed) },
	layers:       exploreLayers,
}

// inprocJob is one in-process optimization.
type inprocJob struct {
	sys  *seadopt.System
	opts seadopt.OptimizeOptions
}

type exploreInst struct {
	pool  []*taskgraph.Graph
	jobs  []inprocJob // one cycle
	warmJ inprocJob
	stats statsSum
}

func newExplore(seed int64) (*exploreInst, int, error) {
	cfg := taskgraph.DefaultRandomConfig(exploreTasks)
	cfg.MaxWidth = exploreWidth
	pool, err := graphPool(cfg, explorePool)
	if err != nil {
		return nil, 0, err
	}
	p, err := heteroPlatform(12, 4, nil)
	if err != nil {
		return nil, 0, err
	}
	in := &exploreInst{pool: pool}
	base := seadopt.OptimizeOptions{
		DeadlineSec: seadopt.RandomGraphDeadline(exploreTasks) / exploreDeadlineDiv,
		SearchMoves: exploreMoves,
		Parallelism: 1,
		Seed:        1,
	}
	rng := rand.New(rand.NewSource(seed))
	for _, k := range rng.Perm(len(pool)) {
		sys, err := seadopt.NewSystem(pool[k], p)
		if err != nil {
			return nil, 0, err
		}
		in.jobs = append(in.jobs, inprocJob{sys, base})
	}
	// The warm-up job is fixed, so set-up time does not depend on the seed.
	sys, err := seadopt.NewSystem(pool[0], p)
	if err != nil {
		return nil, 0, err
	}
	in.warmJ = inprocJob{sys, base}
	return in, len(in.jobs), nil
}

func (in *exploreInst) warm() error {
	_, _, err := optimizeScalar(in.warmJ, nil)
	return err
}

// optimizeScalar runs one scalar job and checks it; it returns the result
// bytes and the wall time of the optimization call.
func optimizeScalar(j inprocJob, stats *seadopt.ExploreStats) ([]byte, float64, error) {
	o := j.opts
	o.Stats = stats
	t0 := time.Now()
	d, err := j.sys.OptimizeContext(context.Background(), o)
	lat := time.Since(t0).Seconds()
	if err != nil {
		return nil, lat, err
	}
	b, err := json.Marshal(d)
	if err != nil {
		return nil, lat, err
	}
	if !d.Eval.MeetsDeadline {
		return nil, lat, fmt.Errorf("design misses the %g s deadline every pool graph can meet", o.DeadlineSec)
	}
	return b, lat, checkDesign(j.sys, o, b)
}

// checkDesign re-evaluates a returned design through System.Evaluate and
// requires the re-evaluated design to marshal to the same bytes.
func checkDesign(sys *seadopt.System, o seadopt.OptimizeOptions, got []byte) error {
	var w struct {
		Scaling []int `json:"scaling"`
		Mapping []int `json:"mapping"`
	}
	if err := json.Unmarshal(got, &w); err != nil {
		return fmt.Errorf("check: decoding design: %w", err)
	}
	ev, err := sys.Evaluate(seadopt.Mapping(w.Mapping), w.Scaling, o)
	if err != nil {
		return fmt.Errorf("check: re-evaluating design: %w", err)
	}
	want, err := json.Marshal(&seadopt.Design{Scaling: w.Scaling, Mapping: w.Mapping, Eval: ev})
	if err != nil {
		return fmt.Errorf("check: %w", err)
	}
	if !bytes.Equal(got, want) {
		return fmt.Errorf("check: design differs from its re-evaluation through System.Evaluate")
	}
	return nil
}

func (in *exploreInst) do(i int, tr *tracer) outcome {
	j := in.jobs[i%len(in.jobs)]
	var st *seadopt.ExploreStats
	if tr != nil {
		st = new(seadopt.ExploreStats)
	}
	start := time.Now()
	b, lat, err := optimizeScalar(j, st)
	if tr != nil {
		tr.add(i, "explore.job", "", start, start.Add(time.Duration(lat*1e9)))
		tr.add(i, "explore.check", "explore.job", start.Add(time.Duration(lat*1e9)), time.Now())
		if err == nil {
			in.stats.add(st)
		}
	}
	return outcome{latency: lat, hash: sha256.Sum256(b), err: err}
}

func (in *exploreInst) verify(*phase) (int, string) {
	return 0, "every design re-evaluated through System.Evaluate; every cycle byte-identical to cycle 0"
}

func (in *exploreInst) close() {}

// describe renders the first cycle's job list canonically (graph bytes and
// options), for the determinism test.
func (in *exploreInst) describe() ([]byte, error) { return describeInproc(in.jobs) }

func describeInproc(jobs []inprocJob) ([]byte, error) {
	var buf bytes.Buffer
	for _, j := range jobs {
		g, err := j.sys.Graph.MarshalJSON()
		if err != nil {
			return nil, err
		}
		fmt.Fprintf(&buf, "%x deadline=%v moves=%d seed=%d par=%d\n", sha256.Sum256(g),
			j.opts.DeadlineSec, j.opts.SearchMoves, j.opts.Seed, j.opts.Parallelism)
	}
	return buf.Bytes(), nil
}

// layerCosts times the per-call layer costs on the first few pool graphs
// of a workload and the ingest costs on their JSON, TGFF and DOT docs.
func layerCosts(pool []*taskgraph.Graph, p *seadopt.Platform, iterations int, deadline float64, seed int64, vals map[string]float64) (callCosts, error) {
	rng := rand.New(rand.NewSource(seed))
	var cs []callCosts
	var docs []graphDoc
	for _, g := range pool[:4] {
		c, err := measureCalls(g, p, iterations, deadline, rng)
		if err != nil {
			return c, err
		}
		cs = append(cs, c)
		for _, f := range docFormats {
			d, err := render(g, f)
			if err != nil {
				return c, err
			}
			docs = append(docs, d)
		}
	}
	c := meanCosts(cs)
	c.into(vals)
	parseMs, keyMs, err := measureIngest(docs, p, ingest.Options{DeadlineSec: deadline})
	if err != nil {
		return c, err
	}
	vals["ingest.parse_ms"] = parseMs
	vals["ingest.key_ms"] = keyMs
	return c, nil
}

func exploreLayers(inst instance, e *env, ph *phase) (map[string]float64, error) {
	in := inst.(*exploreInst)
	vals := map[string]float64{}
	in.stats.into(vals)
	c, err := layerCosts(in.pool, in.jobs[0].sys.Platform, 1, in.jobs[0].opts.DeadlineSec, e.seed, vals)
	if err != nil {
		return nil, err
	}
	vals["ledger.residual_frac"] = 1 - in.stats.explained(c)/mean(okLatencies(ph))
	return vals, nil
}

// okLatencies returns the latencies of the phase's successful jobs.
func okLatencies(ph *phase) []float64 {
	var out []float64
	for _, o := range ph.jobs {
		if o.err == nil {
			out = append(out, o.latency)
		}
	}
	return out
}
