package main

import (
	"fmt"
	"strings"

	"seadopt"
	"seadopt/internal/arch"
	"seadopt/internal/ingest"
	"seadopt/internal/taskgraph"
)

// graphPool draws §V random graphs for graph seeds 1, 2, ... in order and
// keeps the first count the service accepts (ingest.ValidateGraph rejects
// graphs that are not weakly connected), so in-process and served
// workloads share one valid input set. The pool is fixed; the benchmark
// seed orders it and draws the engine seeds, so every seed does the same
// total work even though per-graph cost varies by two orders of magnitude.
func graphPool(cfg taskgraph.RandomConfig, count int) ([]*taskgraph.Graph, error) {
	var pool []*taskgraph.Graph
	for seed := int64(1); len(pool) < count; seed++ {
		if seed > int64(100*count) {
			return nil, fmt.Errorf("only %d of %d graph seeds give connected %d-task graphs", len(pool), seed-1, cfg.N)
		}
		g, err := taskgraph.Random(cfg, seed)
		if err != nil {
			return nil, err
		}
		if ingest.ValidateGraph(g) == nil {
			pool = append(pool, g)
		}
	}
	return pool, nil
}

// heteroPlatform is the benchmark's heterogeneous MPSoC: eff ARM7 cores
// with the 2-level table followed by perf cores with the 4-level table,
// optionally behind an interconnect.
func heteroPlatform(eff, perf int, ic *seadopt.Interconnect) (*seadopt.Platform, error) {
	types := []seadopt.ProcType{
		{Name: "eff", Levels: arch.ARM7Levels2()},
		{Name: "perf", Levels: arch.ARM7Levels4()},
	}
	coreTypes := make([]int, eff+perf)
	for i := eff; i < eff+perf; i++ {
		coreTypes[i] = 1
	}
	var opts []seadopt.PlatformOption
	if ic != nil {
		opts = append(opts, seadopt.WithInterconnect(*ic))
	}
	return seadopt.NewHeterogeneousPlatform(types, coreTypes, opts...)
}

// graphDoc is one task graph rendered in an interchange format.
type graphDoc struct {
	format ingest.Format
	data   []byte
}

var docFormats = []ingest.Format{ingest.FormatJSON, ingest.FormatTGFF, ingest.FormatDOT}

// render encodes g in format. TGFF and DOT carry one private register per
// task, so they describe a different (still valid) problem than the JSON
// encoding; every check parses the same document the service receives.
func render(g *taskgraph.Graph, format ingest.Format) (graphDoc, error) {
	switch format {
	case ingest.FormatJSON:
		data, err := g.MarshalJSON()
		return graphDoc{format, data}, err
	case ingest.FormatDOT:
		return graphDoc{format, []byte(g.DOT())}, nil
	case ingest.FormatTGFF:
		return graphDoc{format, []byte(tgff(g))}, nil
	}
	return graphDoc{}, fmt.Errorf("unknown format %q", format)
}

// tgff renders g as a TGFF @TASK_GRAPH block with one type per task and
// per arc, so the attribute tables carry the exact cycle counts.
func tgff(g *taskgraph.Graph) string {
	var b, wcet, regs, commun strings.Builder
	fmt.Fprintf(&b, "@TASK_GRAPH 0 {\n")
	for _, t := range g.Tasks() {
		fmt.Fprintf(&b, "  TASK t%d TYPE %d\n", t.ID, t.ID)
		fmt.Fprintf(&wcet, "  %d %d\n", t.ID, t.Cycles)
		fmt.Fprintf(&regs, "  %d %d\n", t.ID, g.Inventory().SetBits(t.Registers))
	}
	for k, e := range g.Edges() {
		fmt.Fprintf(&b, "  ARC a%d FROM t%d TO t%d TYPE %d\n", k, e.From, e.To, k)
		fmt.Fprintf(&commun, "  %d %d\n", k, e.Cycles)
	}
	b.WriteString("}\n@WCET {\n" + wcet.String() + "}\n@REGISTERS {\n" + regs.String() + "}\n")
	if commun.Len() > 0 {
		b.WriteString("@COMMUN {\n" + commun.String() + "}\n")
	}
	return b.String()
}
