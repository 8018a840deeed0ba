// Package sched implements application task mapping and list scheduling on
// the MPSoC platform.
//
// A Mapping assigns every task of a task graph to a processing core; the
// list scheduler (used by step 2 of the paper's flow, Fig. 7 step A/D) then
// orders the tasks of each core by b-level priority, respecting data
// dependencies and charging edge communication time only when producer and
// consumer sit on different cores.
//
// Cross-core edge timing follows the platform's communication fabric. By
// default the architecture has dedicated contention-free point-to-point
// links (§II-A) and an edge costs its cycle count at the slower endpoint's
// clock. When the platform carries an arch.Interconnect (bus or 2D-mesh
// NoC), an edge instead moves cycles·BitsPerCycle bits over the fabric in
// hops·HopLatencySec + bits/BandwidthBps seconds, and concurrent transfers
// sharing a link serialize deterministically in agenda (time, seq) order.
// Either way the eq. (7) busy-cycle billing — each cross-core edge's
// cycles billed to both endpoint cores — is unchanged: the fabric shapes
// when tokens arrive, not the cycles the endpoint cores spend driving and
// receiving them.
//
// Cores run at per-core DVS frequencies, so schedule timestamps are kept in
// seconds; per-core busy time is additionally reported in that core's clock
// cycles, which is the T_i of eq. (7) consumed by the Γ model (eq. 3).
//
// Two makespan views are provided:
//
//   - MakespanSeconds: single-iteration DAG makespan (random task graphs).
//   - PipelinedMakespanSeconds(F): the streaming view for applications like
//     the MPEG-2 decoder whose task costs cover an F-frame stream executed
//     as a software pipeline; throughput is limited by the bottleneck core,
//     plus a pipeline fill term of one iteration (DESIGN.md §5.5).
package sched

import (
	"fmt"
	"math/rand"
	"sort"
	"strings"

	"seadopt/internal/arch"
	"seadopt/internal/taskgraph"
)

// Mapping assigns each task (by TaskID index) to a core index in [0, C).
type Mapping []int

// NewMapping returns an all-zeroes (all tasks on core 0) mapping for n tasks.
func NewMapping(n int) Mapping { return make(Mapping, n) }

// Clone returns an independent copy.
func (m Mapping) Clone() Mapping { return append(Mapping(nil), m...) }

// Validate checks that the mapping covers exactly the graph's tasks and
// references only cores in [0, cores).
func (m Mapping) Validate(g *taskgraph.Graph, cores int) error {
	if len(m) != g.N() {
		return fmt.Errorf("sched: mapping covers %d tasks, graph has %d", len(m), g.N())
	}
	for t, c := range m {
		if c < 0 || c >= cores {
			return fmt.Errorf("sched: task %d mapped to core %d outside [0,%d)", t, c, cores)
		}
	}
	return nil
}

// CoreTasks returns, per core, the tasks assigned to it (in TaskID order).
func (m Mapping) CoreTasks(cores int) [][]taskgraph.TaskID {
	out := make([][]taskgraph.TaskID, cores)
	for t, c := range m {
		if c >= 0 && c < cores {
			out[c] = append(out[c], taskgraph.TaskID(t))
		}
	}
	return out
}

// CoreLoads returns the number of tasks mapped to each core.
func (m Mapping) CoreLoads(cores int) []int {
	loads := make([]int, cores)
	for _, c := range m {
		if c >= 0 && c < cores {
			loads[c]++
		}
	}
	return loads
}

// UsesAllCores reports whether every core hosts at least one task — the
// architecture-allocation premise of the paper's Fig. 6 algorithm ("ensure
// tasks are mapped in all cores"). Trivially true when there are fewer
// tasks than cores.
func (m Mapping) UsesAllCores(cores int) bool {
	if len(m) < cores {
		return true
	}
	for _, l := range m.CoreLoads(cores) {
		if l == 0 {
			return false
		}
	}
	return true
}

// UsedCores returns the number of cores with at least one task.
func (m Mapping) UsedCores(cores int) int {
	used := make([]bool, cores)
	n := 0
	for _, c := range m {
		if c >= 0 && c < cores && !used[c] {
			used[c] = true
			n++
		}
	}
	return n
}

// RoundRobin maps task i to core i mod cores.
func RoundRobin(n, cores int) Mapping {
	m := make(Mapping, n)
	for i := range m {
		m[i] = i % cores
	}
	return m
}

// RandomMapping draws a uniform mapping of n tasks onto cores from rng.
func RandomMapping(rng *rand.Rand, n, cores int) Mapping {
	m := make(Mapping, n)
	for i := range m {
		m[i] = rng.Intn(cores)
	}
	return m
}

// Slot is the scheduled execution window of one task, in seconds from the
// start of the application.
type Slot struct {
	Task     taskgraph.TaskID
	Core     int
	StartSec float64
	EndSec   float64
}

// Schedule is the result of list scheduling a mapping at a scaling vector.
type Schedule struct {
	Graph   *taskgraph.Graph
	Mapping Mapping
	Scaling []int

	Slots        []Slot  // indexed by TaskID
	busyCycles   []int64 // eq. (7) T_i per core, in that core's cycles
	busySec      []float64
	makespan     float64
	freqHz       []float64
	commDelaySec float64            // summed realized transfer latency
	icn          *arch.Interconnect // fabric the timing was produced under
}

// ListSchedule schedules g under mapping on the platform with the per-core
// scaling vector, using event-driven list scheduling: whenever a core is
// idle and has data-ready tasks, the one with the highest b-level (longest
// path to a leaf including communication) is dispatched, with TaskID as the
// deterministic tie break. This is exactly the dispatch policy of the
// cycle-level simulator in internal/sim, so the two makespans agree — the
// analytic scheduler is the fast mirror the optimizers iterate on.
//
// ListSchedule is the one-shot convenience form: it builds a throwaway
// Scheduler, so the returned Schedule is uniquely owned by the caller. Hot
// loops that schedule thousands of mappings should hold a Scheduler (or a
// metrics.Evaluator) and reuse it.
func ListSchedule(g *taskgraph.Graph, p *arch.Platform, m Mapping, scaling []int) (*Schedule, error) {
	sc := NewScheduler(g, p)
	if err := sc.Bind(scaling); err != nil {
		return nil, err
	}
	return sc.Schedule(m)
}

// MakespanSeconds returns the single-iteration DAG makespan.
func (s *Schedule) MakespanSeconds() float64 { return s.makespan }

// BusyCycles returns eq. (7)'s T_i for core i, in core-i clock cycles.
func (s *Schedule) BusyCycles(core int) int64 { return s.busyCycles[core] }

// BusySeconds returns the busy time of core i in seconds.
func (s *Schedule) BusySeconds(core int) float64 { return s.busySec[core] }

// TotalBusyCycles returns Σ_i T_i.
func (s *Schedule) TotalBusyCycles() int64 {
	var total int64
	for _, c := range s.busyCycles {
		total += c
	}
	return total
}

// MaxBusySeconds returns the bottleneck core's busy time in seconds.
func (s *Schedule) MaxBusySeconds() float64 {
	best := 0.0
	for _, v := range s.busySec {
		if v > best {
			best = v
		}
	}
	return best
}

// PipelinedMakespanSeconds returns the makespan of executing the application
// as a software pipeline of `iterations` stream iterations whose total work
// equals the task costs (the MPEG-2 decoder view, DESIGN.md §5.5):
// bottleneck-core busy time plus a fill term of one iteration's slack.
// iterations = 1 degrades to the plain DAG makespan.
func (s *Schedule) PipelinedMakespanSeconds(iterations int) float64 {
	if iterations <= 1 {
		return s.makespan
	}
	bottleneck := s.MaxBusySeconds()
	fill := (s.makespan - bottleneck) / float64(iterations)
	if fill < 0 {
		fill = 0
	}
	return bottleneck + fill
}

// Utilization returns per-core α_i = busy seconds / makespan (clamped to
// [0,1]) — the activity factors consumed by the eq. (5) power model.
// The horizon is the pipelined makespan for the given iteration count.
func (s *Schedule) Utilization(iterations int) []float64 {
	horizon := s.PipelinedMakespanSeconds(iterations)
	out := make([]float64, len(s.busySec))
	if horizon <= 0 {
		return out
	}
	for c, v := range s.busySec {
		u := v / horizon
		if u > 1 {
			u = 1
		}
		out[c] = u
	}
	return out
}

// FreqHz returns the operating frequency of core i under this schedule.
func (s *Schedule) FreqHz(core int) float64 { return s.freqHz[core] }

// CommDelaySeconds returns the summed realized latency of every cross-core
// transfer of the schedule — the network view of communication cost. Under
// the ideal fabric each transfer contributes cycles at the slower
// endpoint's clock; under an interconnect it contributes the actual
// hops·latency + serialization + queuing delay the transfer incurred.
// Contrast CommSeconds, the endpoint-occupancy (billing) view.
func (s *Schedule) CommDelaySeconds() float64 { return s.commDelaySec }

// Interconnect returns the fabric the schedule was timed under (nil =
// ideal point-to-point links).
func (s *Schedule) Interconnect() *arch.Interconnect { return s.icn }

// Cores returns the number of platform cores the schedule spans.
func (s *Schedule) Cores() int { return len(s.busyCycles) }

// Gantt renders an ASCII Gantt chart of the schedule, one row per core,
// with the given number of character columns.
func (s *Schedule) Gantt(width int) string {
	if width < 16 {
		width = 16
	}
	var sb strings.Builder
	span := s.makespan
	if span <= 0 {
		return "(empty schedule)\n"
	}
	type byStart []Slot
	rows := make([][]Slot, len(s.busyCycles))
	for _, slot := range s.Slots {
		rows[slot.Core] = append(rows[slot.Core], slot)
	}
	for c, row := range rows {
		sort.Slice(byStart(row), func(i, j int) bool { return row[i].StartSec < row[j].StartSec })
		line := make([]byte, width)
		for i := range line {
			line[i] = '.'
		}
		for _, slot := range row {
			lo := int(slot.StartSec / span * float64(width))
			hi := int(slot.EndSec / span * float64(width))
			if hi <= lo {
				hi = lo + 1
			}
			if hi > width {
				hi = width
			}
			label := s.Graph.Task(slot.Task).Name
			for i := lo; i < hi; i++ {
				if k := i - lo; k < len(label) {
					line[i] = label[k]
				} else {
					line[i] = '='
				}
			}
		}
		fmt.Fprintf(&sb, "core %d |%s| %6.3fs busy\n", c, line, s.busySec[c])
	}
	fmt.Fprintf(&sb, "makespan %.4fs\n", span)
	return sb.String()
}
