package sched

import (
	"math/rand"
	"testing"

	"seadopt/internal/arch"
	"seadopt/internal/taskgraph"
)

// scheduleShape is one benchmarked (graph, platform) pair.
type scheduleShape struct {
	name string
	g    *taskgraph.Graph
	p    *arch.Platform
}

// scheduleShapes mirrors the repository benchmark's in-process workloads:
// the explore_ideal shape (a 60-task width-16 §V graph on 12+4
// heterogeneous cores, ideal links) and the pareto_noc shape (a 40-task §V
// graph on 6+2 heterogeneous cores behind a 4×2 XY mesh).
func scheduleShapes() []scheduleShape {
	plats := referencePlatforms()
	wide := taskgraph.DefaultRandomConfig(60)
	wide.MaxWidth = 16
	return []scheduleShape{
		{"Explore", taskgraph.MustRandom(wide, 1), plats["hetero16-ideal"]},
		{"NoC", taskgraph.MustRandom(taskgraph.DefaultRandomConfig(40), 1), plats["hetero8-mesh"]},
	}
}

// BenchmarkSchedule times the frozen per-edge reference scheduler against
// the compiled kernel on a hill-climb-like walk: each call moves one random
// task to a random core, at a fixed random scaling. "<shape>" pairs time a
// full Schedule (eq. (7) billing included); "<shape>Makespan" pairs time
// what a single-iteration Evaluator.Makespan runs — the full reference
// Schedule before, Scheduler.Makespan now. cmd/benchgate gates each
// /Reference÷/Kernel ratio (BENCH_sched.json).
func BenchmarkSchedule(b *testing.B) {
	for _, sh := range scheduleShapes() {
		rng := rand.New(rand.NewSource(1))
		scaling := randomScaling(sh.p, rng)
		n, cores := sh.g.N(), sh.p.Cores()
		moves := make([][2]int, 1024)
		for i := range moves {
			moves[i] = [2]int{rng.Intn(n), rng.Intn(cores)}
		}
		start := RandomMapping(rng, n, cores)
		walk := func(b *testing.B, call func(Mapping) error) {
			m := start.Clone()
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				mv := moves[i%len(moves)]
				m[mv[0]] = mv[1]
				if err := call(m); err != nil {
					b.Fatal(err)
				}
			}
		}
		ref := newRefScheduler(sh.g, sh.p)
		k := NewScheduler(sh.g, sh.p)
		if err := ref.Bind(scaling); err != nil {
			b.Fatal(err)
		}
		if err := k.Bind(scaling); err != nil {
			b.Fatal(err)
		}
		reference := func(m Mapping) error { _, err := ref.Schedule(m); return err }
		for _, mode := range []struct {
			suffix string
			kernel func(Mapping) error
		}{
			{"", func(m Mapping) error { _, err := k.Schedule(m); return err }},
			{"Makespan", func(m Mapping) error { _, err := k.Makespan(m); return err }},
		} {
			b.Run(sh.name+mode.suffix+"/Reference", func(b *testing.B) { walk(b, reference) })
			b.Run(sh.name+mode.suffix+"/Kernel", func(b *testing.B) { walk(b, mode.kernel) })
		}
	}
}
