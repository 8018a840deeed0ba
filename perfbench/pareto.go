package main

import (
	"context"
	"crypto/sha256"
	"encoding/json"
	"fmt"
	"math/rand"
	"sync"
	"time"

	"seadopt"
	"seadopt/internal/taskgraph"
)

// pareto_noc: 3-objective Pareto exploration in-process, sharded over 2
// benchmark-owned runners that each wrap System.RunShard at Parallelism 1
// (2 threads), on connected 40-task §V graphs over 6 eff + 2 perf ARM7
// cores behind a 4×2 XY mesh (4 Gbit/s links, 0.1 ms per hop). The
// deadline is RandomGraphDeadline(40)/2. The 16-core platform takes about
// 1 s per sharded job on a 2-core Xeon, too long for 100 jobs per run; the
// 8-core one keeps the same fabric and objectives at about 0.15 s per job.
const (
	paretoTasks       = 40
	paretoPool        = 24
	paretoDeadlineDiv = 2
	paretoMoves       = 200
	paretoShards      = 2
)

var paretoWorkload = &workload{
	rssAt:        96,
	conns:        1,
	repeatCycles: true,
	setup:        func(e *env) (instance, int, error) { return newPareto(e.seed) },
	layers:       paretoLayers,
}

type paretoInst struct {
	pool  []*taskgraph.Graph
	jobs  []inprocJob
	warmJ inprocJob

	mu                       sync.Mutex
	shardJobs                int
	shardBusy, replay, imbal float64
	frontierSum              int
	singleWall               []float64
	stats                    statsSum
}

func newPareto(seed int64) (*paretoInst, int, error) {
	pool, err := graphPool(taskgraph.DefaultRandomConfig(paretoTasks), paretoPool)
	if err != nil {
		return nil, 0, err
	}
	p, err := heteroPlatform(6, 2, &seadopt.Interconnect{
		Topology:      seadopt.TopologyMesh,
		BandwidthBps:  4e9,
		HopLatencySec: 1e-4,
		MeshWidth:     4,
	})
	if err != nil {
		return nil, 0, err
	}
	in := &paretoInst{pool: pool}
	base := seadopt.OptimizeOptions{
		DeadlineSec: seadopt.RandomGraphDeadline(paretoTasks) / paretoDeadlineDiv,
		SearchMoves: paretoMoves,
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
	sys, err := seadopt.NewSystem(pool[0], p)
	if err != nil {
		return nil, 0, err
	}
	in.warmJ = inprocJob{sys, base}
	return in, len(in.jobs), nil
}

// shardSpan is one runner's execution of its shard.
type shardSpan struct{ start, end time.Time }

// runSharded runs the sharded Pareto job over paretoShards runners, each
// wrapping System.RunShard; spans, when non-nil, receives each shard's
// execution interval.
func runSharded(j inprocJob, spans *[]shardSpan) ([]*seadopt.Design, error) {
	var mu sync.Mutex
	runners := make([]seadopt.ShardRunner, paretoShards)
	for k := range runners {
		runners[k] = func(ctx context.Context, req seadopt.ShardRequest, board *seadopt.ShardFactBoard) (*seadopt.ShardResult, error) {
			t0 := time.Now()
			res, err := j.sys.RunShard(ctx, j.opts, req, board)
			if spans != nil {
				mu.Lock()
				*spans = append(*spans, shardSpan{t0, time.Now()})
				mu.Unlock()
			}
			return res, err
		}
	}
	return j.sys.OptimizeShardedParetoContext(context.Background(), j.opts, runners)
}

// checkFrontier re-evaluates every frontier member and returns the
// frontier's bytes.
func checkFrontier(j inprocJob, frontier []*seadopt.Design) ([]byte, error) {
	b, err := json.Marshal(frontier)
	if err != nil {
		return nil, err
	}
	if len(frontier) == 0 || !frontier[0].Eval.MeetsDeadline {
		return b, fmt.Errorf("check: empty or infeasible frontier at a deadline every pool graph can meet")
	}
	return b, checkFrontierBytes(j.sys, j.opts, b)
}

// checkFrontierBytes re-evaluates each member of a marshaled frontier.
func checkFrontierBytes(sys *seadopt.System, o seadopt.OptimizeOptions, b []byte) error {
	var members []json.RawMessage
	if err := json.Unmarshal(b, &members); err != nil {
		return fmt.Errorf("check: decoding frontier: %w", err)
	}
	for _, m := range members {
		if err := checkDesign(sys, o, m); err != nil {
			return err
		}
	}
	return nil
}

func (in *paretoInst) warm() error {
	f, err := runSharded(in.warmJ, nil)
	if err != nil {
		return err
	}
	_, err = checkFrontier(in.warmJ, f)
	return err
}

func (in *paretoInst) do(i int, tr *tracer) outcome {
	j := in.jobs[i%len(in.jobs)]
	var spans []shardSpan
	var sp *[]shardSpan
	if tr != nil {
		sp = &spans
	}
	start := time.Now()
	frontier, err := runSharded(j, sp)
	end := time.Now()
	lat := end.Sub(start).Seconds()
	if err != nil {
		return outcome{latency: lat, err: err}
	}
	b, err := checkFrontier(j, frontier)
	if tr != nil {
		tr.add(i, "pareto.job", "", start, end)
		busy, last, longest := 0.0, start, 0.0
		for _, s := range spans {
			tr.add(i, "mapping.shard", "pareto.job", s.start, s.end)
			d := s.end.Sub(s.start).Seconds()
			busy += d
			if d > longest {
				longest = d
			}
			if s.end.After(last) {
				last = s.end
			}
		}
		tr.add(i, "mapping.replay", "pareto.job", last, end)
		in.mu.Lock()
		in.shardJobs++
		in.shardBusy += busy
		in.replay += end.Sub(last).Seconds()
		if busy > 0 {
			in.imbal += longest / (busy / float64(len(spans)))
		}
		in.frontierSum += len(frontier)
		in.mu.Unlock()
	}
	return outcome{latency: lat, hash: sha256.Sum256(b), err: err}
}

// verify, in traced runs, re-runs the first cycle single-node with
// telemetry on: each frontier must be byte-identical to the sharded one,
// and the pass supplies the engine telemetry sharded runs do not carry.
func (in *paretoInst) verify(ph *phase) (int, string) {
	note := "every frontier member re-evaluated through System.Evaluate; every cycle byte-identical to cycle 0"
	if ph.spans == nil {
		return 0, note
	}
	bad := 0
	for i, j := range in.jobs {
		st := new(seadopt.ExploreStats)
		o := j.opts
		o.Stats = st
		t0 := time.Now()
		f, err := j.sys.OptimizeParetoContext(context.Background(), o)
		in.singleWall = append(in.singleWall, time.Since(t0).Seconds())
		if err != nil {
			bad++
			continue
		}
		in.stats.add(st)
		b, err := json.Marshal(f)
		if err != nil || ph.jobs[i].err != nil || sha256.Sum256(b) != ph.jobs[i].hash {
			bad++
		}
	}
	return bad, note + fmt.Sprintf("; %d sharded frontiers byte-compared with single-node OptimizeParetoContext, %d differ", len(in.jobs), bad)
}

func (in *paretoInst) close() {}

func (in *paretoInst) describe() ([]byte, error) { return describeInproc(in.jobs) }

func paretoLayers(inst instance, e *env, ph *phase) (map[string]float64, error) {
	in := inst.(*paretoInst)
	vals := map[string]float64{}
	in.stats.into(vals)
	j := in.jobs[0]
	c, err := layerCosts(in.pool, j.sys.Platform, 1, j.opts.DeadlineSec, e.seed, vals)
	if err != nil {
		return nil, err
	}
	vals["ledger.residual_frac"] = 1 - in.stats.explained(c)/mean(in.singleWall)
	in.mu.Lock()
	defer in.mu.Unlock()
	if n := float64(in.shardJobs); n > 0 {
		vals["mapping.shard_busy_s_per_job"] = in.shardBusy / n
		vals["mapping.shard_imbalance"] = in.imbal / n
		vals["mapping.replay_s_per_job"] = in.replay / n
		vals["pareto.frontier_size"] = float64(in.frontierSum) / n
	}
	return vals, nil
}
