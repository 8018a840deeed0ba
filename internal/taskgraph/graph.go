// Package taskgraph models applications as directed acyclic task graphs.
//
// Following §II-B of the paper, an application is a DAG G(V,E): each node is
// a computational task with an execution cost in clock cycles and a register
// footprint (a registers.Set over the application's register inventory); each
// edge carries a communication cost in clock cycles that is paid only when
// producer and consumer are mapped to different cores.
//
// The package ships the three workloads of the paper's evaluation:
//
//   - MPEG2: the 11-task MPEG-2 video decoder of Fig. 2, with a register
//     inventory reconstructed from the sharing figures quoted in §III.
//   - Fig8: the 6-task worked example of Fig. 8 with its exact r1..r9
//     register table.
//   - Random: the random-graph generator parameterized exactly as §V
//     describes (uniform costs, exponential out-degree, 1–5 kbit footprints).
package taskgraph

import (
	"fmt"
	"sort"

	"seadopt/internal/registers"
)

// TaskID indexes a task within its graph; IDs are dense in [0, N).
type TaskID int

// Task is one computational node of the application DAG.
type Task struct {
	ID        TaskID
	Name      string
	Cycles    int64         // computation cost in clock cycles
	Registers registers.Set // register footprint (local + shared resources)
}

// Edge is a data dependency with a communication cost in clock cycles,
// billed only for cross-core producer/consumer placements.
type Edge struct {
	From   TaskID
	To     TaskID
	Cycles int64
}

// Graph is an immutable application task graph. Build one with a Builder or
// one of the stock constructors (MPEG2, Fig8, Random).
type Graph struct {
	name      string
	tasks     []Task
	inventory *registers.Inventory

	succ [][]Edge // outgoing edges per task
	pred [][]Edge // incoming edges per task
	topo []TaskID // one valid topological order

	kernel ListKernel
}

// ListKernel is the graph-constant input of list scheduling, compiled once
// per Graph in Build so that every scheduler over the graph shares it
// instead of deriving its own copy. Successors are stored in CSR form, in
// Succs order: task t's edges are SuccTo[SuccStart[t]:SuccStart[t+1]] with
// parallel SuccCycles. Rank is the dispatch priority — b-level descending,
// TaskID ascending — and ByRank its inverse. The slices are shared; do not
// mutate.
type ListKernel struct {
	Cycles     []int64
	InDegree   []int32
	SuccStart  []int32
	SuccTo     []int32
	SuccCycles []int64
	Rank       []int32
	ByRank     []int32
}

// Builder assembles a Graph incrementally and validates it on Build.
type Builder struct {
	name      string
	tasks     []Task
	edges     []Edge
	inventory *registers.Inventory
	err       error
}

// NewBuilder starts a graph named name over the given register inventory.
// The inventory may be empty but must be non-nil.
func NewBuilder(name string, inv *registers.Inventory) *Builder {
	b := &Builder{name: name, inventory: inv}
	if inv == nil {
		b.err = fmt.Errorf("taskgraph: nil register inventory for graph %q", name)
	}
	return b
}

// AddTask appends a task with the given name, computation cost and register
// footprint, returning its ID. Errors are deferred to Build.
func (b *Builder) AddTask(name string, cycles int64, regIDs ...string) TaskID {
	id := TaskID(len(b.tasks))
	set := registers.NewSet(regIDs...)
	if b.err == nil {
		if name == "" {
			b.err = fmt.Errorf("taskgraph: task %d has empty name", id)
		} else if cycles <= 0 {
			b.err = fmt.Errorf("taskgraph: task %q has non-positive cost %d", name, cycles)
		} else {
			for _, r := range regIDs {
				if !b.inventory.Has(r) {
					b.err = fmt.Errorf("taskgraph: task %q references unknown register %q", name, r)
					break
				}
			}
		}
	}
	b.tasks = append(b.tasks, Task{ID: id, Name: name, Cycles: cycles, Registers: set})
	return id
}

// AddEdge records a dependency from -> to with the given communication cost.
func (b *Builder) AddEdge(from, to TaskID, cycles int64) {
	if b.err == nil {
		switch {
		case from == to:
			b.err = fmt.Errorf("taskgraph: self edge on task %d", from)
		case int(from) < 0 || int(from) >= len(b.tasks) || int(to) < 0 || int(to) >= len(b.tasks):
			b.err = fmt.Errorf("taskgraph: edge %d->%d references undefined task", from, to)
		case cycles < 0:
			b.err = fmt.Errorf("taskgraph: edge %d->%d has negative cost %d", from, to, cycles)
		}
	}
	b.edges = append(b.edges, Edge{From: from, To: to, Cycles: cycles})
}

// Build validates the accumulated tasks and edges (well-formed, no duplicate
// edges, acyclic) and returns the finished Graph.
func (b *Builder) Build() (*Graph, error) {
	if b.err != nil {
		return nil, b.err
	}
	if len(b.tasks) == 0 {
		return nil, fmt.Errorf("taskgraph: graph %q has no tasks", b.name)
	}
	g := &Graph{
		name:      b.name,
		tasks:     b.tasks,
		inventory: b.inventory,
		succ:      make([][]Edge, len(b.tasks)),
		pred:      make([][]Edge, len(b.tasks)),
	}
	seen := make(map[[2]TaskID]bool, len(b.edges))
	for _, e := range b.edges {
		key := [2]TaskID{e.From, e.To}
		if seen[key] {
			return nil, fmt.Errorf("taskgraph: duplicate edge %d->%d in %q", e.From, e.To, b.name)
		}
		seen[key] = true
		g.succ[e.From] = append(g.succ[e.From], e)
		g.pred[e.To] = append(g.pred[e.To], e)
	}
	topo, err := g.computeTopo()
	if err != nil {
		return nil, err
	}
	g.topo = topo
	g.compileKernel()
	return g, nil
}

// compileKernel fills g.kernel from the finished graph.
func (g *Graph) compileKernel() {
	n := len(g.tasks)
	k := &g.kernel
	k.Cycles = make([]int64, n)
	k.InDegree = make([]int32, n)
	k.SuccStart = make([]int32, n+1)
	k.ByRank = make([]int32, n)
	k.Rank = make([]int32, n)
	edges := 0
	for _, es := range g.succ {
		edges += len(es)
	}
	k.SuccTo = make([]int32, 0, edges)
	k.SuccCycles = make([]int64, 0, edges)
	for t := range g.tasks {
		k.Cycles[t] = g.tasks[t].Cycles
		k.InDegree[t] = int32(len(g.pred[t]))
		k.SuccStart[t+1] = k.SuccStart[t] + int32(len(g.succ[t]))
		k.ByRank[t] = int32(t)
		for _, e := range g.succ[t] {
			k.SuccTo = append(k.SuccTo, int32(e.To))
			k.SuccCycles = append(k.SuccCycles, e.Cycles)
		}
	}
	bl := g.BLevels()
	sort.SliceStable(k.ByRank, func(i, j int) bool { return bl[k.ByRank[i]] > bl[k.ByRank[j]] })
	for r, t := range k.ByRank {
		k.Rank[t] = int32(r)
	}
}

// MustBuild is Build but panics on error; for static fixtures.
func (b *Builder) MustBuild() *Graph {
	g, err := b.Build()
	if err != nil {
		panic(err)
	}
	return g
}

// computeTopo returns a topological order (Kahn's algorithm with a
// deterministic smallest-ID-first tie break) or an error if cyclic.
func (g *Graph) computeTopo() ([]TaskID, error) {
	indeg := make([]int, len(g.tasks))
	for _, edges := range g.succ {
		for _, e := range edges {
			indeg[e.To]++
		}
	}
	var ready []TaskID
	for id := range g.tasks {
		if indeg[id] == 0 {
			ready = append(ready, TaskID(id))
		}
	}
	order := make([]TaskID, 0, len(g.tasks))
	for len(ready) > 0 {
		sort.Slice(ready, func(i, j int) bool { return ready[i] < ready[j] })
		t := ready[0]
		ready = ready[1:]
		order = append(order, t)
		for _, e := range g.succ[t] {
			indeg[e.To]--
			if indeg[e.To] == 0 {
				ready = append(ready, e.To)
			}
		}
	}
	if len(order) != len(g.tasks) {
		return nil, fmt.Errorf("taskgraph: graph %q contains a cycle", g.name)
	}
	return order, nil
}

// Name returns the graph's name.
func (g *Graph) Name() string { return g.name }

// N returns the number of tasks.
func (g *Graph) N() int { return len(g.tasks) }

// Task returns the task with the given ID.
func (g *Graph) Task(id TaskID) Task { return g.tasks[id] }

// Tasks returns all tasks in ID order. The slice is shared; do not mutate.
func (g *Graph) Tasks() []Task { return g.tasks }

// Inventory returns the register inventory the task footprints refer to.
func (g *Graph) Inventory() *registers.Inventory { return g.inventory }

// ListKernel returns the graph's compiled list-scheduling input.
func (g *Graph) ListKernel() *ListKernel { return &g.kernel }

// Succs returns the outgoing edges of task id.
func (g *Graph) Succs(id TaskID) []Edge { return g.succ[id] }

// Preds returns the incoming edges of task id.
func (g *Graph) Preds(id TaskID) []Edge { return g.pred[id] }

// Edges returns every edge of the graph, grouped by source task.
func (g *Graph) Edges() []Edge {
	var out []Edge
	for _, es := range g.succ {
		out = append(out, es...)
	}
	return out
}

// EdgeCost returns the communication cost of edge from->to and whether the
// edge exists.
func (g *Graph) EdgeCost(from, to TaskID) (int64, bool) {
	for _, e := range g.succ[from] {
		if e.To == to {
			return e.Cycles, true
		}
	}
	return 0, false
}

// TopoOrder returns a copy of one valid topological order.
func (g *Graph) TopoOrder() []TaskID {
	out := make([]TaskID, len(g.topo))
	copy(out, g.topo)
	return out
}

// Roots returns the tasks with no predecessors, in ID order.
func (g *Graph) Roots() []TaskID {
	var out []TaskID
	for id := range g.tasks {
		if len(g.pred[id]) == 0 {
			out = append(out, TaskID(id))
		}
	}
	return out
}

// Leaves returns the tasks with no successors, in ID order.
func (g *Graph) Leaves() []TaskID {
	var out []TaskID
	for id := range g.tasks {
		if len(g.succ[id]) == 0 {
			out = append(out, TaskID(id))
		}
	}
	return out
}

// TotalComputeCycles returns the summed computation cost of all tasks.
func (g *Graph) TotalComputeCycles() int64 {
	var total int64
	for _, t := range g.tasks {
		total += t.Cycles
	}
	return total
}

// TotalCommCycles returns the summed communication cost of all edges.
func (g *Graph) TotalCommCycles() int64 {
	var total int64
	for _, es := range g.succ {
		for _, e := range es {
			total += e.Cycles
		}
	}
	return total
}

// BLevels returns, per task, the length in cycles of the longest path from
// the task to any leaf, including the task's own cost and all edge costs on
// the path. This is the classic list-scheduling priority.
func (g *Graph) BLevels() []int64 {
	bl := make([]int64, len(g.tasks))
	for i := len(g.topo) - 1; i >= 0; i-- {
		id := g.topo[i]
		best := int64(0)
		for _, e := range g.succ[id] {
			if v := e.Cycles + bl[e.To]; v > best {
				best = v
			}
		}
		bl[id] = g.tasks[id].Cycles + best
	}
	return bl
}

// CriticalPathCycles returns the longest path through the graph in cycles,
// including edge costs (a lower bound on any single-iteration makespan when
// every communication crosses cores).
func (g *Graph) CriticalPathCycles() int64 {
	var best int64
	for _, v := range g.BLevels() {
		if v > best {
			best = v
		}
	}
	return best
}

// DescendantsOf returns the set of tasks reachable from id (excluding id).
func (g *Graph) DescendantsOf(id TaskID) map[TaskID]bool {
	out := make(map[TaskID]bool)
	stack := []TaskID{id}
	for len(stack) > 0 {
		t := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		for _, e := range g.succ[t] {
			if !out[e.To] {
				out[e.To] = true
				stack = append(stack, e.To)
			}
		}
	}
	return out
}

// UnionRegisters returns the union of the register footprints of the given
// tasks — the per-core register set of eq. (8) when those tasks share a core.
func (g *Graph) UnionRegisters(ids []TaskID) registers.Set {
	out := make(registers.Set)
	for _, id := range ids {
		out.UnionWith(g.tasks[id].Registers)
	}
	return out
}
