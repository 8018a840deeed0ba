package sched

import (
	"fmt"

	"seadopt/internal/arch"
	"seadopt/internal/taskgraph"
)

// event is an agenda entry: a task completion (task >= 0) or readiness
// (^task). Its (at, seq) key is unique, so pop order is deterministic.
type event struct {
	at   float64
	seq  int32
	task int32
}

// Scheduler is a reusable list scheduler pinned to a (graph, platform) pair.
// Bind selects the per-core scaling vector; Schedule then list-schedules any
// mapping without allocating, reusing every buffer and the output Schedule.
//
// It is a compiled kernel over the graph's ListKernel, and its agenda holds
// one readiness event per task rather than one token per cross-core edge.
// Each completion folds every out-edge's arrival into the consumer's latest
// (time, seq) contribution: a local or zero-cycle edge contributes the
// completion's own key, a cross-core edge its transfer arrival under a
// fresh seq (fabric links are reserved right then). The last completing
// predecessor readies the consumer under the largest contribution — the
// trigger seq — at once if that is its own key, else by a readiness event.
// A batch is every event at the current time issued before the batch
// began; touched idle cores then dispatch their minimum-rank task. This is
// exactly the order of the per-edge token agenda it replaced, so slots,
// makespan, comm delay and link contention are bit-identical to it.
//
// The returned *Schedule is BORROWED — valid only until the next Schedule,
// Makespan or Bind call. Callers that retain a schedule must Clone it; the
// one-shot ListSchedule wrapper returns an owned one. A Scheduler is not
// safe for concurrent use; each engine worker has its own (via
// metrics.Evaluator).
type Scheduler struct {
	g   *taskgraph.Graph
	k   *taskgraph.ListKernel
	p   *arch.Platform
	icn *arch.Interconnect // nil = ideal point-to-point links

	scaling []int
	freq    []float64

	// Scratch reused across calls: the (at, seq) min-heap and next seq,
	// per-task unfinished predecessors and latest contribution, per-core
	// ready ranks, and per-link drain times with routing scratch.
	agenda      []event
	seq         int32
	waiting     []int32
	readyAt     []float64
	readySeq    []int32
	pools       [][]int32
	coreBusy    []bool
	touched     []bool
	touchedList []int
	linkBusy    []float64
	linkPath    []int

	out Schedule
}

// NewScheduler builds a scheduler for g on p. Bind must be called before
// Schedule.
func NewScheduler(g *taskgraph.Graph, p *arch.Platform) *Scheduler {
	n := g.N()
	cores := p.Cores()
	s := &Scheduler{
		g:           g,
		k:           g.ListKernel(),
		p:           p,
		icn:         p.Interconnect(),
		scaling:     make([]int, cores),
		freq:        make([]float64, cores),
		waiting:     make([]int32, n),
		readyAt:     make([]float64, n),
		readySeq:    make([]int32, n),
		pools:       make([][]int32, cores),
		coreBusy:    make([]bool, cores),
		touched:     make([]bool, cores),
		touchedList: make([]int, 0, cores),
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

// transferArrival reserves the fabric links of a src→dst transfer of the
// given communication cycles issued at now, and returns its arrival time.
// Cut-through channel reservation: the transfer starts once every link on
// its path is free of earlier traffic by the time its head word gets there
// (link i is entered i hop-latencies after the start), then holds each
// link for the serialization time bits/bandwidth. Uncontended this is
// exactly hops·HopLatencySec + bits/BandwidthBps; contention only delays
// the start. Transfers are issued as completions drain in strict (time,
// seq) order, so reservation order — and therefore who queues behind
// whom — is deterministic.
func (s *Scheduler) transferArrival(src, dst int, cycles int64, now float64) float64 {
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

// Bind selects the scaling vector for subsequent Schedule calls. It
// invalidates any borrowed Schedule previously returned.
func (s *Scheduler) Bind(scaling []int) error {
	if err := s.p.ValidScaling(scaling); err != nil {
		return err
	}
	copy(s.scaling, scaling)
	for i, lv := range s.scaling {
		s.freq[i] = s.p.MustCoreLevel(i, lv).FreqHz()
	}
	return nil
}

// BindDelta rebinds only the cores whose coefficient differs from the
// currently bound vector, appending their indices to changed (typically a
// reused buffer) and returning the extended slice. It requires a prior
// successful Bind; per-core frequency work is done only for the changed
// cores, so a near-identical successor vector costs O(changed) float math
// (the diff itself is an O(cores) integer scan). Validation happens before
// any state is touched, so on error the binding is unchanged. Like Bind, it
// invalidates any borrowed Schedule.
func (s *Scheduler) BindDelta(next []int, changed []int) ([]int, error) {
	if s.freq[0] == 0 {
		return changed, fmt.Errorf("sched: BindDelta called before Bind")
	}
	if len(next) != len(s.scaling) {
		return changed, fmt.Errorf("sched: scaling vector has %d entries, platform has %d cores", len(next), len(s.scaling))
	}
	for c, v := range next {
		if v == s.scaling[c] {
			continue
		}
		if _, err := s.p.CoreLevel(c, v); err != nil {
			return changed, err
		}
	}
	for c, v := range next {
		if v == s.scaling[c] {
			continue
		}
		s.scaling[c] = v
		s.freq[c] = s.p.MustCoreLevel(c, v).FreqHz()
		changed = append(changed, c)
	}
	return changed, nil
}

// Scaling returns the bound scaling vector. The slice is shared; do not
// mutate.
func (s *Scheduler) Scaling() []int { return s.scaling }

// Schedule list-schedules mapping m at the bound scaling, using exactly the
// dispatch policy of ListSchedule (highest b-level first, TaskID tie break),
// and bills the eq. (7) per-core busy cycles. The result is borrowed; see
// the type comment.
func (s *Scheduler) Schedule(m Mapping) (*Schedule, error) {
	if err := s.run(m); err != nil {
		return nil, err
	}
	// Eq. (7): per-core busy cycles = task cycles + dependency cycles of
	// cross-core edges, billed to both endpoint cores (the producer drives
	// the link, the consumer receives; DESIGN.md §5).
	sc, k := &s.out, s.k
	clear(sc.busyCycles)
	for t, core := range m {
		sc.busyCycles[core] += k.Cycles[t]
		for i := k.SuccStart[t]; i < k.SuccStart[t+1]; i++ {
			if dst := m[k.SuccTo[i]]; dst != core {
				sc.busyCycles[core] += k.SuccCycles[i]
				sc.busyCycles[dst] += k.SuccCycles[i]
			}
		}
	}
	for c := range sc.busySec {
		sc.busySec[c] = float64(sc.busyCycles[c]) / s.freq[c]
	}
	return sc, nil
}

// Makespan is Schedule without the eq. (7) busy-cycle billing: it returns
// only the single-iteration makespan, and invalidates any borrowed Schedule.
func (s *Scheduler) Makespan(m Mapping) (float64, error) {
	err := s.run(m)
	return s.out.makespan, err
}

// run is the schedule loop shared by Schedule and Makespan: it fills the
// output's Mapping, Slots, makespan and comm delay.
func (s *Scheduler) run(m Mapping) error {
	if err := m.Validate(s.g, len(s.freq)); err != nil {
		return err
	}
	if s.freq[0] == 0 {
		return fmt.Errorf("sched: Schedule called before Bind")
	}
	k, sc := s.k, &s.out
	copy(sc.Mapping, m)
	sc.makespan, sc.commDelaySec = 0, 0
	clear(s.linkBusy)
	clear(s.coreBusy)
	copy(s.waiting, k.InDegree)
	clear(s.readyAt)
	s.agenda, s.seq = s.agenda[:0], 0
	for c := range s.pools {
		s.pools[c] = s.pools[c][:0]
	}
	// Seed: root tasks are data-ready at time zero. Every contribution is
	// later than zero, so the cleared readyAt makes the first one win.
	for t, d := range k.InDegree {
		if d == 0 {
			s.pools[m[t]] = append(s.pools[m[t]], k.Rank[t])
		}
	}
	for c := range s.pools {
		s.dispatch(c, 0)
	}

	for len(s.agenda) > 0 {
		// A batch is every event at now issued before the batch began;
		// events it issues at now (a duration or transfer that rounds to
		// zero) form the next batch. Completions and readiness at now see
		// each other before any touched core dispatches.
		now, end := s.agenda[0].at, s.seq
		s.touchedList = s.touchedList[:0]
		for len(s.agenda) > 0 && s.agenda[0].at == now && s.agenda[0].seq < end {
			e := s.pop()
			if e.task < 0 {
				s.ready(^e.task, m)
				continue
			}
			s.complete(e, m)
		}
		for _, c := range s.touchedList {
			s.dispatch(c, now)
			s.touched[c] = false
		}
	}
	return nil
}

// complete retires completion e: it frees the core and folds every
// outgoing edge's arrival into its consumer's latest contribution,
// readying the consumers whose last predecessor this was.
func (s *Scheduler) complete(e event, m Mapping) {
	k, sc, now := s.k, &s.out, e.at
	core := m[e.task]
	s.coreBusy[core] = false
	s.touch(core)
	sc.makespan = now
	for i := k.SuccStart[e.task]; i < k.SuccStart[e.task+1]; i++ {
		to, cyc := k.SuccTo[i], k.SuccCycles[i]
		at, seq := now, e.seq
		if dst := m[to]; dst != core && cyc != 0 {
			if s.icn != nil {
				// Reserve the fabric route; arrive at the contended time.
				at = s.transferArrival(core, dst, cyc, now)
				sc.commDelaySec += at - now
			} else {
				// Ideal link: cycles at the slower endpoint's clock.
				d := float64(cyc) / min(s.freq[core], s.freq[dst])
				sc.commDelaySec += d
				at = now + d
			}
			seq = s.seq
			s.seq++
		}
		if at > s.readyAt[to] || (at == s.readyAt[to] && seq > s.readySeq[to]) {
			s.readyAt[to], s.readySeq[to] = at, seq
		}
		if s.waiting[to]--; s.waiting[to] > 0 {
			continue
		}
		if s.readySeq[to] == e.seq {
			s.ready(to, m) // readied by this completion itself
		} else {
			s.push(event{s.readyAt[to], s.readySeq[to], ^to})
		}
	}
}

// ready adds task t to its core's ready pool.
func (s *Scheduler) ready(t int32, m Mapping) {
	core := m[t]
	s.pools[core] = append(s.pools[core], s.k.Rank[t])
	s.touch(core)
}

func (s *Scheduler) touch(core int) {
	if !s.touched[core] {
		s.touched[core] = true
		s.touchedList = append(s.touchedList, core)
	}
}

// dispatch starts the minimum-rank ready task on core if the core is idle.
func (s *Scheduler) dispatch(core int, now float64) {
	pool := s.pools[core]
	if s.coreBusy[core] || len(pool) == 0 {
		return
	}
	best := 0
	for i, r := range pool {
		if r < pool[best] {
			best = i
		}
	}
	t := s.k.ByRank[pool[best]]
	last := len(pool) - 1
	pool[best] = pool[last]
	s.pools[core] = pool[:last]
	end := now + float64(s.k.Cycles[t])/s.freq[core]
	s.out.Slots[t] = Slot{Task: taskgraph.TaskID(t), Core: core, StartSec: now, EndSec: end}
	s.coreBusy[core] = true
	s.push(event{end, s.seq, t})
	s.seq++
}

func (a event) before(b event) bool {
	return a.at < b.at || (a.at == b.at && a.seq < b.seq)
}

// push inserts an event into the agenda min-heap. Hand-rolled rather than
// container/heap: the interface indirection of the stdlib adapter is
// measurable at this call frequency.
func (s *Scheduler) push(e event) {
	s.agenda = append(s.agenda, e)
	i := len(s.agenda) - 1
	for i > 0 {
		parent := (i - 1) / 2
		if !e.before(s.agenda[parent]) {
			break
		}
		s.agenda[i] = s.agenda[parent]
		i = parent
	}
	s.agenda[i] = e
}

// pop removes and returns the agenda's (at, seq)-minimum event.
func (s *Scheduler) pop() event {
	a := s.agenda
	top, last := a[0], len(a)-1
	e, i := a[last], 0
	for c := 1; c < last; c = 2*i + 1 {
		if c+1 < last && a[c+1].before(a[c]) {
			c++
		}
		if !a[c].before(e) {
			break
		}
		a[i] = a[c]
		i = c
	}
	a[i] = e
	s.agenda = a[:last]
	return top
}

// Clone returns an independent deep copy of the schedule, safe to retain
// after the Scheduler that produced it moves on.
func (s *Schedule) Clone() *Schedule {
	out := *s
	out.Mapping = s.Mapping.Clone()
	out.Scaling = append([]int(nil), s.Scaling...)
	out.Slots = append([]Slot(nil), s.Slots...)
	out.busyCycles = append([]int64(nil), s.busyCycles...)
	out.busySec = append([]float64(nil), s.busySec...)
	out.freqHz = append([]float64(nil), s.freqHz...)
	return &out
}
