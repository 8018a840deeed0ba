package mapping

import (
	"context"
	"fmt"
	"runtime"
	"sync"
	"testing"

	"seadopt/internal/arch"
	"seadopt/internal/metrics"
	"seadopt/internal/sched"
	"seadopt/internal/taskgraph"
	"seadopt/internal/vscale"
)

// plat64 builds the flagship-shaped heterogeneous platform: 56 two-level
// efficiency cores plus 8 four-level performance cores (9405 combinations).
func plat64(t *testing.T) *arch.Platform {
	t.Helper()
	types := []arch.ProcType{
		{Name: "eff", Levels: arch.ARM7Levels2()},
		{Name: "perf", Levels: arch.ARM7Levels4()},
	}
	coreTypes := make([]int, 64)
	for i := 56; i < 64; i++ {
		coreTypes[i] = 1
	}
	p, err := arch.NewHeterogeneousPlatform(types, coreTypes)
	if err != nil {
		t.Fatal(err)
	}
	return p
}

// graph64 is a reduced-budget stand-in for the flagship benchmark workload:
// the same §V generator and 64-core-wide layers, fewer tasks so the
// exhaustive reference stays test-sized.
func graph64(t *testing.T) (*taskgraph.Graph, float64) {
	t.Helper()
	cfg := taskgraph.DefaultRandomConfig(40)
	cfg.MaxWidth = 16
	return taskgraph.MustRandom(cfg, 11), taskgraph.RandomDeadline(40) / 5
}

// TestRankedMatchesExhaustive is the acceptance property of the ranked
// incumbent-seeding pass that every branch-and-bound run starts with: on a
// mixed Fig. 8 platform and the 64-core heterogeneous platform, where the
// pass probes 568 combinations before its seed and so exercises its
// parallel window at scale, the seeded StrategyBranchAndBound publishes a
// seed and returns a byte-identical best Design to StrategyExhaustive at
// Parallelism 1, 4 and GOMAXPROCS, while avoiding part of the space.
func TestRankedMatchesExhaustive(t *testing.T) {
	g64, dl64 := graph64(t)
	workloads := []rankedWorkload{
		{"fig8-mixed3", taskgraph.Fig8(), heteroPlat(t, 1, 1), taskgraph.Fig8Deadline, 1, 80},
		{"hetero64", g64, plat64(t), dl64, 1, 12},
	}
	parallelisms := []int{1, 4, runtime.GOMAXPROCS(0)}
	for _, wl := range workloads {
		exh := wl.config()
		exh.Strategy = StrategyExhaustive
		wantBest, _, err := Explore(wl.g, wl.p, SEAMapper(exh), exh)
		if err != nil {
			t.Fatalf("%s exhaustive: %v", wl.name, err)
		}
		want := designFingerprint(wantBest)

		for _, par := range parallelisms {
			ranked := wl.config()
			ranked.Parallelism = par
			tel := NewTelemetry()
			ranked.Telemetry = tel
			var evaluated, avoided int
			ranked.Progress = func(pr Progress) {
				if pr.Pruned || pr.Skipped {
					avoided++
				} else {
					evaluated++
				}
			}
			gotBest, _, err := Explore(wl.g, wl.p, SEAMapper(ranked), ranked)
			if err != nil {
				t.Fatalf("%s ranked par=%d: %v", wl.name, par, err)
			}
			seeded := false
			for _, ev := range tel.Stats().Events {
				seeded = seeded || (ev.Kind == EventBound && ev.Index == -1)
			}
			if !seeded {
				t.Errorf("%s par=%d: the ranked pass published no seed", wl.name, par)
			}
			if got := designFingerprint(gotBest); got != want {
				t.Errorf("%s par=%d: designs diverged:\n  exhaustive: %s\n  ranked bnb: %s",
					wl.name, par, want, got)
			}
			if avoided == 0 {
				t.Errorf("%s par=%d: ranked branch-and-bound avoided nothing (evaluated %d)",
					wl.name, par, evaluated)
			}
		}
	}
}

// rankedWorkload is one seeded branch-and-bound test case.
type rankedWorkload struct {
	name     string
	g        *taskgraph.Graph
	p        *arch.Platform
	deadline float64
	iters    int
	moves    int
}

// rankedWorkloads are the §V and 64-core workloads the ranked-pass tests
// run on, plus MPEG-2 for the paper's own decoder. The ranked pass finds
// its seed after 1, 20 and 568 probes on them.
func rankedWorkloads(t *testing.T) []rankedWorkload {
	t.Helper()
	g64, dl64 := graph64(t)
	return []rankedWorkload{
		{"mpeg2", taskgraph.MPEG2(), plat(4), taskgraph.MPEG2Deadline, taskgraph.MPEG2Frames, 150},
		{"random40-16core", taskgraph.MustRandom(taskgraph.DefaultRandomConfig(40), 7), plat(16), taskgraph.RandomDeadline(40) * 0.5, 1, 150},
		{"hetero64", g64, plat64(t), dl64, 1, 12},
	}
}

func (wl rankedWorkload) config() Config {
	c := cfg(wl.deadline, wl.iters)
	c.SearchMoves = wl.moves
	c.DiscardPerScaling = true
	c.Strategy = StrategyBranchAndBound
	c.Probe = NewProbeCache()
	return c
}

// cachedProbeVerdict reads combination scaling's probe verdict from c.Probe
// and reports whether the verdict was already cached.
func cachedProbeVerdict(t *testing.T, wl rankedWorkload, c Config, scaling []int) (feasible, cached bool) {
	t.Helper()
	space, err := vscale.PlatformSpace(wl.p)
	if err != nil {
		t.Fatal(err)
	}
	idx, err := space.Rank(scaling)
	if err != nil {
		t.Fatal(err)
	}
	eval, release, err := acquireEvaluator(wl.g, wl.p, c)
	if err != nil {
		t.Fatal(err)
	}
	defer release()
	if err := eval.Bind(scaling); err != nil {
		t.Fatal(err)
	}
	mc := &MapContext{Ctx: context.Background(), Graph: wl.g, Platform: wl.p, Eval: eval,
		Scaling: eval.Scaling(), Seed: comboSeed(c.Seed, idx)}
	_, feasible, cached, err = c.Probe.feasibleAtScaling(mc, idx, c)
	if err != nil {
		t.Fatal(err)
	}
	return feasible, cached
}

// TestRankedSeedMapsOnlyProbeFeasible: once the ranked pass has seeded the
// incumbent, a probe-infeasible combination can never win, so
// branch-and-bound runs the mapper only on probe-feasible combinations.
func TestRankedSeedMapsOnlyProbeFeasible(t *testing.T) {
	for _, wl := range rankedWorkloads(t) {
		c := wl.config()
		tel := NewTelemetry()
		c.Telemetry = tel
		var mu sync.Mutex
		var mapped [][]int
		inner := SEAMapper(c)
		mapper := func(mc *MapContext) (sched.Mapping, *metrics.Evaluation, error) {
			mu.Lock()
			mapped = append(mapped, append([]int(nil), mc.Scaling...))
			mu.Unlock()
			return inner(mc)
		}
		best, _, err := ExploreContext(context.Background(), wl.g, wl.p, mapper, c)
		if err != nil {
			t.Fatalf("%s: %v", wl.name, err)
		}
		if !best.Eval.MeetsDeadline {
			t.Fatalf("%s: no feasible design; the workload must be seedable", wl.name)
		}
		st := tel.Stats()
		seeded := false
		for _, ev := range st.Events {
			seeded = seeded || (ev.Kind == EventBound && ev.Index == -1)
		}
		if !seeded {
			t.Fatalf("%s: the ranked pass published no seed", wl.name)
		}
		if len(mapped) == 0 || int64(len(mapped)) != st.Combos.MapperRuns {
			t.Fatalf("%s: %d mapper calls, telemetry counts %d runs", wl.name, len(mapped), st.Combos.MapperRuns)
		}
		for _, sc := range mapped {
			feasible, cached := cachedProbeVerdict(t, wl, c, sc)
			if !cached || !feasible {
				t.Errorf("%s: mapper ran on scaling %v (probed %v, probe-feasible %v)", wl.name, sc, cached, feasible)
			}
		}
		t.Logf("%s: %d mapper runs, %d mapper runs spared, %d probed combinations",
			wl.name, st.Combos.MapperRuns, st.Combos.MapperSpared, c.Probe.Len())
	}
}

// TestRankedSeedAtAnyParallelism: the ranked pass resolves its probes in
// rank order, so the seed nominal and the chosen Design are identical at
// any Parallelism, and the pass starts at most Parallelism-1 probes beyond
// the seed combination — the probe cache ends up with at most that many
// more entries than at Parallelism 1.
func TestRankedSeedAtAnyParallelism(t *testing.T) {
	for _, wl := range rankedWorkloads(t) {
		if testing.Short() && wl.name == "hetero64" {
			// Over a minute under the race detector; the plain test run and
			// TestRankedMatchesExhaustive's hetero64 case still cover it.
			continue
		}
		var wantSeed, wantDesign string
		var wantProbes int
		for _, par := range []int{1, 2, 4, runtime.GOMAXPROCS(0)} {
			c := wl.config()
			c.Parallelism = par
			tel := NewTelemetry()
			c.Telemetry = tel
			best, _, err := ExploreContext(context.Background(), wl.g, wl.p, SEAMapper(c), c)
			if err != nil {
				t.Fatalf("%s par=%d: %v", wl.name, par, err)
			}
			gotSeed := ""
			for _, ev := range tel.Stats().Events {
				if ev.Kind == EventBound && ev.Index == -1 {
					gotSeed = fmt.Sprintf("%x", ev.NominalW)
				}
			}
			if gotSeed == "" {
				t.Fatalf("%s par=%d: no seed; the workload must be seedable", wl.name, par)
			}
			gotDesign, gotProbes := designFingerprint(best), c.Probe.Len()

			if par == 1 {
				wantSeed, wantDesign, wantProbes = gotSeed, gotDesign, gotProbes
				t.Logf("%s: %d probed combinations", wl.name, wantProbes)
				continue
			}
			if gotSeed != wantSeed {
				t.Errorf("%s par=%d: seed nominal %s, want %s", wl.name, par, gotSeed, wantSeed)
			}
			if gotDesign != wantDesign {
				t.Errorf("%s par=%d: design diverged:\n  par=1: %s\n  got:   %s", wl.name, par, wantDesign, gotDesign)
			}
			if extra := gotProbes - wantProbes; extra < 0 || extra > par-1 {
				t.Errorf("%s par=%d: %d probed combinations, %d at Parallelism 1", wl.name, par, gotProbes, wantProbes)
			}
		}
	}
}

// TestRankedSeedResolvesInRankOrder: probes finish out of rank order when a
// later combination's verdict is already cached, but the seed must still be
// the first probe-feasible combination in rank order. Every combination
// pricier than the seed is pre-probed, so at Parallelism 4 the window's
// later feasible verdicts arrive while the seed's own 155-move climb runs.
func TestRankedSeedResolvesInRankOrder(t *testing.T) {
	g := taskgraph.MustRandom(taskgraph.DefaultRandomConfig(30), 2)
	p := plat(6)
	wl := rankedWorkload{"random30-6core", g, p, taskgraph.RandomDeadline(30) * 0.35, 1, 50}

	c := wl.config()
	c.Parallelism = 1
	want, ok, err := seedRankedIncumbent(context.Background(), g, p, c)
	if err != nil || !ok {
		t.Fatalf("sequential seed: ok %v, err %v", ok, err)
	}

	c = wl.config()
	c.Parallelism = 4
	space, err := vscale.PlatformSpace(p)
	if err != nil {
		t.Fatal(err)
	}
	cursor := boundsFor(g, p, c).Cursor()
	it := space.Iter()
	pricier := 0
	for {
		scaling, _, more := it.Next()
		if !more {
			break
		}
		if _, err := cursor.Advance(scaling); err != nil {
			t.Fatal(err)
		}
		if dominatedNominal(cursor.NominalPower(), want) {
			if feasible, _ := cachedProbeVerdict(t, wl, c, scaling); feasible {
				pricier++
			}
		}
	}
	if pricier == 0 {
		t.Fatal("no pricier probe-feasible combination; the test cannot reorder verdicts")
	}
	got, ok, err := seedRankedIncumbent(context.Background(), g, p, c)
	if err != nil || !ok {
		t.Fatalf("parallel seed: ok %v, err %v", ok, err)
	}
	if got != want {
		t.Fatalf("parallel seed nominal %v, want the rank-order seed %v (%d pricier feasible combinations pre-probed)", got, want, pricier)
	}
}

// TestBranchAndBoundNonMonotoneLevelPower: arch accepts any level table
// whose frequency falls strictly, so a slower level may draw more f·V²
// than a faster one. The ranked walk cannot order such a space; the pass
// must then step aside rather than fail, and the unseeded stream must
// still return exhaustive's byte-identical Design, single-node and
// sharded.
func TestBranchAndBoundNonMonotoneLevelPower(t *testing.T) {
	levels := []arch.Level{
		{S: 1, FreqMHz: 200, Vdd: 1.00}, // f·V² = 200
		{S: 2, FreqMHz: 150, Vdd: 1.30}, // f·V² = 253.5: a slower level, heavier
		{S: 3, FreqMHz: 100, Vdd: 0.58},
	}
	p, err := arch.NewPlatform(4, levels)
	if err != nil {
		t.Fatalf("platform: %v", err)
	}
	g := taskgraph.MPEG2()
	base := cfg(taskgraph.MPEG2Deadline, taskgraph.MPEG2Frames)
	base.SearchMoves = 150

	exh := base
	exh.Strategy = StrategyExhaustive
	wantBest, _, err := Explore(g, p, SEAMapper(exh), exh)
	if err != nil {
		t.Fatalf("exhaustive: %v", err)
	}
	want := designFingerprint(wantBest)

	for _, par := range []int{1, 4, runtime.GOMAXPROCS(0)} {
		bnb := base
		bnb.Strategy = StrategyBranchAndBound
		bnb.Parallelism = par
		tel := NewTelemetry()
		bnb.Telemetry = tel
		gotBest, _, err := Explore(g, p, SEAMapper(bnb), bnb)
		if err != nil {
			t.Fatalf("bnb par=%d: %v", par, err)
		}
		if got := designFingerprint(gotBest); got != want {
			t.Errorf("bnb par=%d: designs diverged:\n  exhaustive: %s\n  bnb:        %s", par, want, got)
		}
		for _, ev := range tel.Stats().Events {
			if ev.Kind == EventBound && ev.Index == -1 {
				t.Errorf("bnb par=%d: the ranked pass published a seed on an unorderable space", par)
			}
		}

		sharded := base
		sharded.Strategy = StrategyBranchAndBound
		sharded.Parallelism = par
		shBest, _, err := ExploreSharded(context.Background(), g, p, SEAMapper(sharded), sharded,
			make([]ShardRunner, 2))
		if err != nil {
			t.Fatalf("sharded bnb par=%d: %v", par, err)
		}
		if got := designFingerprint(shBest); got != want {
			t.Errorf("sharded bnb par=%d: designs diverged:\n  exhaustive: %s\n  sharded:    %s", par, want, got)
		}
	}
}
