package sched

import (
	"fmt"
	"math/rand"
	"testing"

	"seadopt/internal/arch"
	"seadopt/internal/registers"
	"seadopt/internal/taskgraph"
)

// This file freezes the per-edge token list scheduler that the compiled
// kernel replaced, as the oracle the kernel must reproduce bit for bit.
// Do not edit refScheduler: its value is that it stays exactly the old
// algorithm — one agenda event per task completion AND per cross-core edge
// (a token), each batch being every event at the earliest timestamp.

// agendaEvent is one entry of the reference agenda: either a task
// completion or a cross-core token arrival.
type agendaEvent struct {
	at     float64
	seq    int
	isStop bool             // task completion (vs token arrival)
	task   taskgraph.TaskID // completing task or token target
}

// agendaLess is the agenda's strict total order: earliest timestamp first,
// insertion sequence breaking ties.
func agendaLess(a, b agendaEvent) bool {
	return a.at < b.at || (a.at == b.at && a.seq < b.seq)
}

// refScheduler is the frozen reference list scheduler.
type refScheduler struct {
	g   *taskgraph.Graph
	p   *arch.Platform
	bl  []int64
	icn *arch.Interconnect

	scaling []int
	freq    []float64

	remainingPreds []int
	agenda         []agendaEvent
	batch          []agendaEvent
	pools          [][]taskgraph.TaskID
	coreBusy       []bool
	touched        []bool
	touchedList    []int
	linkBusy       []float64
	linkPath       []int

	out Schedule
}

func newRefScheduler(g *taskgraph.Graph, p *arch.Platform) *refScheduler {
	n := g.N()
	cores := p.Cores()
	s := &refScheduler{
		g:              g,
		p:              p,
		bl:             g.BLevels(),
		icn:            p.Interconnect(),
		scaling:        make([]int, cores),
		freq:           make([]float64, cores),
		remainingPreds: make([]int, n),
		pools:          make([][]taskgraph.TaskID, cores),
		coreBusy:       make([]bool, cores),
		touched:        make([]bool, cores),
		touchedList:    make([]int, 0, cores),
	}
	if s.icn != nil {
		s.linkBusy = make([]float64, s.icn.NumLinks())
	}
	s.out = Schedule{
		Graph:      g,
		Mapping:    make(Mapping, n),
		Scaling:    s.scaling,
		Slots:      make([]Slot, n),
		busyCycles: make([]int64, cores),
		busySec:    make([]float64, cores),
		freqHz:     s.freq,
		icn:        s.icn,
	}
	return s
}

func (s *refScheduler) transferArrival(src, dst int, cycles int64, now float64) float64 {
	ic := s.icn
	ser := ic.MessageBits(cycles) / ic.BandwidthBps
	lat := ic.HopLatencySec
	s.linkPath = ic.PathLinks(src, dst, s.linkPath[:0])
	start := now
	for i, l := range s.linkPath {
		if t := s.linkBusy[l] - float64(i)*lat; t > start {
			start = t
		}
	}
	for i, l := range s.linkPath {
		s.linkBusy[l] = start + float64(i)*lat + ser
	}
	return start + float64(len(s.linkPath))*lat + ser
}

func (s *refScheduler) Bind(scaling []int) error {
	if err := s.p.ValidScaling(scaling); err != nil {
		return err
	}
	copy(s.scaling, scaling)
	for i, lv := range s.scaling {
		s.freq[i] = s.p.MustCoreLevel(i, lv).FreqHz()
	}
	return nil
}

func (s *refScheduler) Schedule(m Mapping) (*Schedule, error) {
	if err := m.Validate(s.g, s.p.Cores()); err != nil {
		return nil, err
	}
	if s.freq[0] == 0 {
		return nil, fmt.Errorf("sched: Schedule called before Bind")
	}
	g, n, cores := s.g, s.g.N(), s.p.Cores()

	sc := &s.out
	copy(sc.Mapping, m)
	sc.makespan = 0
	sc.commDelaySec = 0
	for i := range s.linkBusy {
		s.linkBusy[i] = 0
	}
	for c := 0; c < cores; c++ {
		sc.busyCycles[c] = 0
		sc.busySec[c] = 0
		s.pools[c] = s.pools[c][:0]
		s.coreBusy[c] = false
		s.touched[c] = false
	}
	for t := 0; t < n; t++ {
		s.remainingPreds[t] = len(g.Preds(taskgraph.TaskID(t)))
	}
	s.agenda = s.agenda[:0]

	seq := 0
	push := func(at float64, isStop bool, task taskgraph.TaskID) {
		s.heapPush(agendaEvent{at, seq, isStop, task})
		seq++
	}

	scheduledCount := 0
	dispatch := func(core int, now float64) {
		if s.coreBusy[core] || len(s.pools[core]) == 0 {
			return
		}
		best := 0
		for i := 1; i < len(s.pools[core]); i++ {
			a, b := s.pools[core][i], s.pools[core][best]
			if s.bl[a] > s.bl[b] || (s.bl[a] == s.bl[b] && a < b) {
				best = i
			}
		}
		t := s.pools[core][best]
		s.pools[core] = append(s.pools[core][:best], s.pools[core][best+1:]...)
		dur := float64(g.Task(t).Cycles) / s.freq[core]
		sc.Slots[t] = Slot{Task: t, Core: core, StartSec: now, EndSec: now + dur}
		s.coreBusy[core] = true
		scheduledCount++
		push(now+dur, true, t)
	}

	for t := 0; t < n; t++ {
		if s.remainingPreds[t] == 0 {
			s.pools[m[t]] = append(s.pools[m[t]], taskgraph.TaskID(t))
		}
	}
	for c := range s.pools {
		dispatch(c, 0)
	}

	touch := func(core int) {
		if !s.touched[core] {
			s.touched[core] = true
			s.touchedList = append(s.touchedList, core)
		}
	}

	for len(s.agenda) > 0 {
		now := s.agenda[0].at
		s.batch = s.batch[:0]
		for len(s.agenda) > 0 && s.agenda[0].at == now {
			s.batch = append(s.batch, s.heapPop())
		}
		s.touchedList = s.touchedList[:0]
		for _, e := range s.batch {
			if e.isStop {
				t := e.task
				core := m[t]
				s.coreBusy[core] = false
				touch(core)
				if now > sc.makespan {
					sc.makespan = now
				}
				for _, edge := range g.Succs(t) {
					if m[edge.To] == core || edge.Cycles == 0 {
						s.remainingPreds[edge.To]--
						if s.remainingPreds[edge.To] == 0 {
							s.pools[m[edge.To]] = append(s.pools[m[edge.To]], edge.To)
							touch(m[edge.To])
						}
						continue
					}
					if s.icn != nil {
						arrive := s.transferArrival(core, m[edge.To], edge.Cycles, now)
						sc.commDelaySec += arrive - now
						push(arrive, false, edge.To)
						continue
					}
					fSlow := s.freq[core]
					if fd := s.freq[m[edge.To]]; fd < fSlow {
						fSlow = fd
					}
					sc.commDelaySec += float64(edge.Cycles) / fSlow
					push(now+float64(edge.Cycles)/fSlow, false, edge.To)
				}
			} else {
				t := e.task
				s.remainingPreds[t]--
				if s.remainingPreds[t] == 0 {
					s.pools[m[t]] = append(s.pools[m[t]], t)
					touch(m[t])
				}
			}
		}
		for _, c := range s.touchedList {
			dispatch(c, now)
			s.touched[c] = false
		}
	}
	if scheduledCount != n {
		return nil, fmt.Errorf("sched: graph %q not schedulable (%d of %d tasks ran)", g.Name(), scheduledCount, n)
	}

	for t := 0; t < n; t++ {
		core := m[t]
		sc.busyCycles[core] += g.Task(taskgraph.TaskID(t)).Cycles
		for _, e := range g.Succs(taskgraph.TaskID(t)) {
			if m[e.To] != core {
				sc.busyCycles[core] += e.Cycles
				sc.busyCycles[m[e.To]] += e.Cycles
			}
		}
	}
	for c := range sc.busySec {
		sc.busySec[c] = float64(sc.busyCycles[c]) / s.freq[c]
	}
	return sc, nil
}

func (s *refScheduler) heapPush(e agendaEvent) {
	s.agenda = append(s.agenda, e)
	i := len(s.agenda) - 1
	for i > 0 {
		parent := (i - 1) / 2
		if !agendaLess(s.agenda[i], s.agenda[parent]) {
			break
		}
		s.agenda[i], s.agenda[parent] = s.agenda[parent], s.agenda[i]
		i = parent
	}
}

func (s *refScheduler) heapPop() agendaEvent {
	top := s.agenda[0]
	last := len(s.agenda) - 1
	s.agenda[0] = s.agenda[last]
	s.agenda = s.agenda[:last]
	i := 0
	for {
		l, r := 2*i+1, 2*i+2
		small := i
		if l < last && agendaLess(s.agenda[l], s.agenda[small]) {
			small = l
		}
		if r < last && agendaLess(s.agenda[r], s.agenda[small]) {
			small = r
		}
		if small == i {
			break
		}
		s.agenda[i], s.agenda[small] = s.agenda[small], s.agenda[i]
		i = small
	}
	return top
}

// quantized rebuilds g with every task cost drawn from {1,2}·unit and every
// edge cost from {0,1,2}·unit: equal durations and arrivals collide, so
// batches hold many events and zero-cycle cross-core edges occur.
func quantized(g *taskgraph.Graph, unit int64, rng *rand.Rand) *taskgraph.Graph {
	b := taskgraph.NewBuilder(g.Name()+"-quantized", registers.NewInventory())
	for _, task := range g.Tasks() {
		b.AddTask(task.Name, unit*(1+rng.Int63n(2)))
	}
	for _, e := range g.Edges() {
		b.AddEdge(e.From, e.To, unit*rng.Int63n(3))
	}
	return b.MustBuild()
}

// rounding rebuilds g with 1–3-cycle tasks and 0–3-cycle edges behind one
// extra root of 2^55 cycles feeding every original root. After it the
// clock is so far from zero that most durations and transfers round back
// to the same timestamp: events issued during a batch land at that batch's
// own time, which only the batch's seq bound keeps out of it.
func rounding(g *taskgraph.Graph, rng *rand.Rand) *taskgraph.Graph {
	b := taskgraph.NewBuilder(g.Name()+"-rounding", registers.NewInventory())
	for _, task := range g.Tasks() {
		b.AddTask(task.Name, 1+rng.Int63n(3))
	}
	for _, e := range g.Edges() {
		b.AddEdge(e.From, e.To, rng.Int63n(4))
	}
	huge := b.AddTask("huge", 1<<55)
	for _, r := range g.Roots() {
		b.AddEdge(huge, r, rng.Int63n(3))
	}
	return b.MustBuild()
}

// referenceGraphs is the differential test's graph set: the paper's
// workloads, §V random graphs at several sizes and widths, and the
// quantized and rounding twins of each.
func referenceGraphs(rng *rand.Rand) []*taskgraph.Graph {
	gs := []*taskgraph.Graph{taskgraph.MPEG2(), taskgraph.Fig8()}
	for _, shape := range []struct{ n, width int }{{12, 4}, {40, 4}, {60, 16}} {
		cfg := taskgraph.DefaultRandomConfig(shape.n)
		cfg.MaxWidth = shape.width
		for seed := int64(1); seed <= 2; seed++ {
			gs = append(gs, taskgraph.MustRandom(cfg, seed))
		}
	}
	for _, g := range gs[:len(gs):len(gs)] {
		unit := g.TotalComputeCycles() / int64(g.N())
		gs = append(gs, quantized(g, unit, rng), rounding(g, rng))
	}
	return gs
}

// referencePlatforms covers homogeneous and heterogeneous cores on the
// ideal fabric, a bus and meshes, including zero hop latency.
func referencePlatforms() map[string]*arch.Platform {
	hetero := func(eff, perf int, ic *arch.Interconnect) *arch.Platform {
		types := []arch.ProcType{
			{Name: "eff", Levels: arch.ARM7Levels2()},
			{Name: "perf", Levels: arch.ARM7Levels4()},
		}
		coreTypes := make([]int, eff+perf)
		for i := eff; i < len(coreTypes); i++ {
			coreTypes[i] = 1
		}
		var opts []arch.Option
		if ic != nil {
			opts = append(opts, arch.WithInterconnect(*ic))
		}
		p, err := arch.NewHeterogeneousPlatform(types, coreTypes, opts...)
		if err != nil {
			panic(err)
		}
		return p
	}
	fabric := func(topo arch.Topology, bw, hop float64, width int) *arch.Interconnect {
		return &arch.Interconnect{Topology: topo, BandwidthBps: bw, HopLatencySec: hop, MeshWidth: width}
	}
	return map[string]*arch.Platform{
		"homo4-ideal":      arch.MustNewPlatform(4, arch.ARM7Levels3()),
		"homo4-bus":        arch.MustNewPlatform(4, arch.ARM7Levels3(), arch.WithInterconnect(*fabric(arch.TopologyBus, 4e9, 1e-4, 0))),
		"homo4-bus-hop0":   arch.MustNewPlatform(4, arch.ARM7Levels3(), arch.WithInterconnect(*fabric(arch.TopologyBus, 1.6e10, 0, 0))),
		"homo6-mesh":       arch.MustNewPlatform(6, arch.ARM7Levels3(), arch.WithInterconnect(*fabric(arch.TopologyMesh, 1e9, 1e-3, 3))),
		"hetero16-ideal":   hetero(12, 4, nil),
		"hetero8-mesh":     hetero(6, 2, fabric(arch.TopologyMesh, 4e9, 1e-4, 4)),
		"hetero8-mesh-hop": hetero(6, 2, fabric(arch.TopologyMesh, 4e9, 0, 4)),
	}
}

// randomScaling draws a valid per-core level vector.
func randomScaling(p *arch.Platform, rng *rand.Rand) []int {
	s := make([]int, p.Cores())
	for c := range s {
		s[c] = 1 + rng.Intn(p.CoreNumLevels(c))
	}
	return s
}

// TestKernelMatchesReference is the differential test of the compiled
// kernel against the frozen per-edge scheduler: on every graph × platform,
// random scalings (homogeneous and mixed) and random mappings over all or
// few cores must give bit-identical slots, makespan, busy cycles and
// seconds, and comm delay, and Makespan must equal Schedule's makespan.
//
// Negative controls, each run against a mutated kernel: reversing the
// order in which a batch's touched cores dispatch (iterating touchedList
// backwards) reorders same-time completions, and the test fails — first
// on random-60-seed1/homo4-ideal, comm delay 29.5575 vs the reference's
// 29.557500000000005 (summation order); on homo4-bus-hop0 link contention
// moves it by 0.15 s. Dropping the batch's seq bound fails only on the
// rounding graphs; ignoring seq when folding equal-time contributions
// fails on the quantized ones.
func TestKernelMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	graphs := referenceGraphs(rng)
	plats := referencePlatforms()
	names := []string{"homo4-ideal", "homo4-bus", "homo4-bus-hop0", "homo6-mesh", "hetero16-ideal", "hetero8-mesh", "hetero8-mesh-hop"}
	perPair := 200
	if testing.Short() {
		perPair = 40
	}
	cases := 0
	for _, g := range graphs {
		for _, name := range names {
			p := plats[name]
			ref := newRefScheduler(g, p)
			k := NewScheduler(g, p)
			cores := p.Cores()
			for i := 0; i < perPair; i++ {
				scaling := randomScaling(p, rng)
				if i%3 == 0 {
					for c := range scaling {
						scaling[c] = 1 + i/3%p.CoreNumLevels(c)
					}
				}
				used := cores
				if i%2 == 1 {
					used = 1 + rng.Intn(min(cores, 3))
				}
				m := RandomMapping(rng, g.N(), used)
				if err := ref.Bind(scaling); err != nil {
					t.Fatal(err)
				}
				if err := k.Bind(scaling); err != nil {
					t.Fatal(err)
				}
				want, err := ref.Schedule(m)
				if err != nil {
					t.Fatal(err)
				}
				ms, err := k.Makespan(m)
				if err != nil {
					t.Fatal(err)
				}
				got, err := k.Schedule(m)
				if err != nil {
					t.Fatal(err)
				}
				where := fmt.Sprintf("%s on %s, scaling %v, mapping %v", g.Name(), name, scaling, m)
				if ms != want.makespan {
					t.Fatalf("%s: Makespan %v, reference %v", where, ms, want.makespan)
				}
				if err := sameSchedule(got, want); err != nil {
					t.Fatalf("%s: %v", where, err)
				}
				cases++
			}
		}
	}
	t.Logf("%d cases bit-identical over %d graphs × %d platforms", cases, len(graphs), len(names))
}

// sameSchedule reports the first bit-level difference between two
// schedules' timing and billing.
func sameSchedule(got, want *Schedule) error {
	for i := range want.Slots {
		if got.Slots[i] != want.Slots[i] {
			return fmt.Errorf("slot %d = %+v, reference %+v", i, got.Slots[i], want.Slots[i])
		}
	}
	if got.makespan != want.makespan {
		return fmt.Errorf("makespan %v, reference %v", got.makespan, want.makespan)
	}
	if got.commDelaySec != want.commDelaySec {
		return fmt.Errorf("comm delay %v, reference %v", got.commDelaySec, want.commDelaySec)
	}
	for c := range want.busyCycles {
		if got.busyCycles[c] != want.busyCycles[c] || got.busySec[c] != want.busySec[c] {
			return fmt.Errorf("core %d busy %d cycles / %v s, reference %d / %v",
				c, got.busyCycles[c], got.busySec[c], want.busyCycles[c], want.busySec[c])
		}
	}
	return nil
}
