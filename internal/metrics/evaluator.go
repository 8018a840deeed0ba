package metrics

import (
	"fmt"
	"math/bits"

	"seadopt/internal/arch"
	"seadopt/internal/faults"
	"seadopt/internal/sched"
	"seadopt/internal/taskgraph"
)

// Evaluator is the reusable form of Evaluate: it pins a (graph, platform)
// pair — and, after Bind, a scaling vector — and amortizes every
// per-evaluation allocation across calls. The mapper searches evaluate
// thousands of candidate mappings per scaling combination; with an
// Evaluator each of those calls reuses
//
//   - the list scheduler's agenda, ready pools and output arrays
//     (sched.Scheduler, over the graph's once-compiled ListKernel),
//   - a bitset register-pressure profile: task footprints are compiled once
//     into word-packed bitmasks over the inventory, so the per-core R_i of
//     eq. (8) is a handful of ORs and popcounts instead of map unions,
//   - the per-core metric rows and utilization scratch of the Evaluation
//     itself.
//
// The *Evaluation returned by Evaluate is BORROWED: it is valid only until
// the next Evaluate or Bind call on this Evaluator. Callers that keep an
// evaluation (an incumbent in a search, a per-scaling design) must Clone it.
// The package-level Evaluate wrapper preserves the old owned-result
// contract.
//
// An Evaluator is not safe for concurrent use; give each worker its own.
type Evaluator struct {
	g   *taskgraph.Graph
	p   *arch.Platform
	ser faults.SERModel
	opt Options
	sch *sched.Scheduler

	// Graph-constant register pressure profile.
	words    int        // words per bitmask
	taskMask [][]uint64 // per-task footprint over inventory indices
	regBits  []int64    // width of inventory register i, by index

	// Per-core scratch.
	coreMask    [][]uint64
	coreLoads   []int
	coreRegBits []int64
	util        []float64

	// Bound per-scaling context.
	bound        bool
	lambdaSec    []float64
	lambdaCyc    []float64
	changed      []int // BindDelta scratch
	nominalHz    float64
	baselineBits int64

	// Last-evaluation context for EvaluateDelta.
	haveEval bool
	lastM    sched.Mapping

	stats EvalStats

	ev Evaluation
}

// EvalStats counts the work an Evaluator has done since construction. The
// counters are observe-only — they never influence an evaluation — and are
// plain fields because an Evaluator is single-goroutine by contract;
// aggregate across workers with Merge.
type EvalStats struct {
	// Evaluations counts full metric evaluations (Evaluate and
	// EvaluateDelta's re-schedule path).
	Evaluations int64 `json:"evaluations"`
	// Makespans counts makespan-only evaluations (the probe fast path).
	Makespans int64 `json:"makespans"`
	// BindsFull counts first-time scaling binds (O(cores) λ derivation).
	BindsFull int64 `json:"binds_full"`
	// BindsDelta counts incremental rebinds (O(changed) λ derivation).
	BindsDelta int64 `json:"binds_delta"`
	// DeltaPatched counts EvaluateDelta calls resolved by the O(changed)
	// idle-core patch; DeltaRescheduled counts the re-schedule fallback.
	DeltaPatched     int64 `json:"delta_patched"`
	DeltaRescheduled int64 `json:"delta_rescheduled"`
}

// Merge accumulates other into s.
func (s *EvalStats) Merge(other EvalStats) {
	s.Evaluations += other.Evaluations
	s.Makespans += other.Makespans
	s.BindsFull += other.BindsFull
	s.BindsDelta += other.BindsDelta
	s.DeltaPatched += other.DeltaPatched
	s.DeltaRescheduled += other.DeltaRescheduled
}

// Sub returns the counter difference s - base: the work done since base was
// snapshotted. Pooled evaluators accumulate counters across borrowers, so a
// borrower attributes only its own delta to telemetry.
func (s EvalStats) Sub(base EvalStats) EvalStats {
	return EvalStats{
		Evaluations:      s.Evaluations - base.Evaluations,
		Makespans:        s.Makespans - base.Makespans,
		BindsFull:        s.BindsFull - base.BindsFull,
		BindsDelta:       s.BindsDelta - base.BindsDelta,
		DeltaPatched:     s.DeltaPatched - base.DeltaPatched,
		DeltaRescheduled: s.DeltaRescheduled - base.DeltaRescheduled,
	}
}

// DeltaBindRate is the fraction of Bind calls served by the O(changed)
// delta path (0 when no binds happened).
func (s EvalStats) DeltaBindRate() float64 {
	total := s.BindsFull + s.BindsDelta
	if total == 0 {
		return 0
	}
	return float64(s.BindsDelta) / float64(total)
}

// Stats snapshots the evaluator's work counters.
func (e *Evaluator) Stats() EvalStats { return e.stats }

// NewEvaluator builds an evaluator for g on p under the given SER model and
// options. Bind must be called before Evaluate.
func NewEvaluator(g *taskgraph.Graph, p *arch.Platform, ser faults.SERModel, opt Options) (*Evaluator, error) {
	if err := ser.Validate(); err != nil {
		return nil, err
	}
	if opt.Iterations < 1 {
		opt.Iterations = 1
	}
	n := g.N()
	cores := p.Cores()
	inv := g.Inventory()
	ids := inv.IDs()
	index := make(map[string]int, len(ids))
	regBits := make([]int64, len(ids))
	for i, id := range ids {
		index[id] = i
		regBits[i] = inv.Bits(id)
	}
	words := (len(ids) + 63) / 64
	if words == 0 {
		words = 1
	}
	taskMask := make([][]uint64, n)
	maskBacking := make([]uint64, n*words)
	for t := 0; t < n; t++ {
		taskMask[t] = maskBacking[t*words : (t+1)*words : (t+1)*words]
		for id := range g.Task(taskgraph.TaskID(t)).Registers {
			i := index[id]
			taskMask[t][i/64] |= 1 << (i % 64)
		}
	}
	coreMask := make([][]uint64, cores)
	coreBacking := make([]uint64, cores*words)
	for c := 0; c < cores; c++ {
		coreMask[c] = coreBacking[c*words : (c+1)*words : (c+1)*words]
	}
	e := &Evaluator{
		g:            g,
		p:            p,
		ser:          ser,
		opt:          opt,
		sch:          sched.NewScheduler(g, p),
		words:        words,
		taskMask:     taskMask,
		regBits:      regBits,
		coreMask:     coreMask,
		coreLoads:    make([]int, cores),
		coreRegBits:  make([]int64, cores),
		util:         make([]float64, cores),
		lambdaSec:    make([]float64, cores),
		lambdaCyc:    make([]float64, cores),
		changed:      make([]int, 0, cores),
		nominalHz:    p.NominalHz(),
		baselineBits: p.BaselineBits(),
		lastM:        make(sched.Mapping, 0, n),
	}
	e.ev.PerCore = make([]CoreMetrics, cores)
	return e, nil
}

// Graph returns the pinned task graph.
func (e *Evaluator) Graph() *taskgraph.Graph { return e.g }

// Platform returns the pinned platform.
func (e *Evaluator) Platform() *arch.Platform { return e.p }

// Options returns the evaluation options.
func (e *Evaluator) Options() Options { return e.opt }

// SER returns the soft error rate model.
func (e *Evaluator) SER() faults.SERModel { return e.ser }

// Bind pins the scaling vector for subsequent Evaluate calls, precomputing
// the per-core λ rates. It invalidates any borrowed Evaluation.
//
// A rebind diffs against the current vector and re-derives the frequency
// and λ rates of the changed cores only — each rate is a pure per-core
// function of the operating point, so the delta path is bit-identical to a
// full bind. Successive vectors of a combination stream differ in a few
// coefficients, making the rebind O(changed) transcendental math instead of
// O(cores).
func (e *Evaluator) Bind(scaling []int) error {
	if !e.bound {
		if err := e.sch.Bind(scaling); err != nil {
			return err
		}
		e.bound = true
		e.haveEval = false
		e.stats.BindsFull++
		return e.rebindLambdas(nil)
	}
	changed, err := e.sch.BindDelta(scaling, e.changed[:0])
	e.changed = changed[:0]
	if err != nil {
		return err
	}
	e.haveEval = false
	e.stats.BindsDelta++
	return e.rebindLambdas(changed)
}

// rebindLambdas re-derives the per-core λ rates for the given cores (nil
// means all).
func (e *Evaluator) rebindLambdas(cores []int) error {
	s := e.sch.Scaling()
	if cores == nil {
		for c := range s {
			e.bindLambda(c, s[c])
		}
		return nil
	}
	for _, c := range cores {
		e.bindLambda(c, s[c])
	}
	return nil
}

func (e *Evaluator) bindLambda(c, s int) {
	level := e.p.MustCoreLevel(c, s)
	e.lambdaSec[c] = e.ser.RatePerSec(level.Vdd)
	e.lambdaCyc[c] = e.ser.RatePerCycle(level.Vdd, level.FreqHz())
}

// Scaling returns the bound scaling vector. The slice is shared; do not
// mutate.
func (e *Evaluator) Scaling() []int { return e.sch.Scaling() }

// SetDeadline rebinds the deadline the evaluator verdicts against, keeping
// every precomputed structure: the deadline feeds only the MeetsDeadline
// comparisons, so a re-deadlined evaluator is bit-identical to one freshly
// constructed with the new value. This is what lets a batch sweep reuse one
// evaluator across its deadline points instead of rebuilding per point.
// The borrowed Evaluation of any previous Evaluate is invalidated (its
// DeadlineSec/MeetsDeadline fields reflect the old deadline), so a
// subsequent EvaluateDelta is an error until the next full Evaluate.
func (e *Evaluator) SetDeadline(d float64) {
	if e.opt.DeadlineSec == d {
		return
	}
	e.opt.DeadlineSec = d
	e.haveEval = false
}

// Evaluate schedules m at the bound scaling and evaluates the design point
// against eqs. (3), (5), (7), (8). The result is borrowed; see the type
// comment.
func (e *Evaluator) Evaluate(m sched.Mapping) (*Evaluation, error) {
	return e.evaluate(m, false)
}

// EvaluateDelta re-evaluates the mapping of the most recent Evaluate call
// after moving the bound scaling from prev to next. prev must equal the
// currently bound vector (the caller names both ends of the move
// explicitly, so a stale evaluator is an error rather than a silent
// mis-evaluation). Only the changed cores' frequency and λ terms are
// re-derived; the mapping-dependent register-pressure profile — which
// scaling cannot change — is reused outright. When no changed core hosts a
// task the schedule provably cannot move either (idle cores never appear
// as an endpoint of a task or a cross-core token, and their power and Γ
// terms are exactly zero at every level), so the borrowed Evaluation is
// patched in O(changed); otherwise the schedule is recomputed. Either way
// the result is bit-identical to a full Bind(next) + Evaluate(mapping).
//
// The returned Evaluation is borrowed under the usual contract, and the
// evaluator is left bound to next.
func (e *Evaluator) EvaluateDelta(prev, next []int) (*Evaluation, error) {
	if !e.bound || !e.haveEval {
		return nil, fmt.Errorf("metrics: EvaluateDelta called before Evaluate")
	}
	cur := e.sch.Scaling()
	if len(prev) != len(cur) {
		return nil, fmt.Errorf("metrics: EvaluateDelta prev has %d entries, platform has %d cores", len(prev), len(cur))
	}
	for c := range prev {
		if prev[c] != cur[c] {
			return nil, fmt.Errorf("metrics: EvaluateDelta prev %v does not match the bound scaling %v", prev, cur)
		}
	}
	changed, err := e.sch.BindDelta(next, e.changed[:0])
	e.changed = changed[:0]
	if err != nil {
		return nil, err
	}
	scheduleSafe := true
	for _, c := range changed {
		e.bindLambda(c, next[c])
		if e.coreLoads[c] > 0 {
			scheduleSafe = false
		}
	}
	if !scheduleSafe {
		// A loaded core moved: timing can change, so re-schedule — but the
		// register-pressure profile of the unchanged mapping is reused.
		e.stats.DeltaRescheduled++
		return e.evaluate(e.lastM, true)
	}
	e.stats.DeltaPatched++
	// Every changed core is idle under the last mapping: the schedule, the
	// power sum (α = 0 terms are exactly zero at any level) and every Γ
	// term are untouched; only the idle cores' λ rows need patching.
	for _, c := range changed {
		cm := &e.ev.PerCore[c]
		cm.LambdaPerSec = e.lambdaSec[c]
		cm.Lambda = e.lambdaCyc[c]
	}
	return &e.ev, nil
}

// Makespan schedules m at the bound scaling and returns only the pipelined
// makespan T_M and its deadline verdict, skipping the register-pressure,
// Γ and power pipeline entirely. The value is bit-identical to the
// TMSeconds/MeetsDeadline an Evaluate of the same mapping would produce —
// same scheduler, same arithmetic — at roughly the cost of the schedule
// alone, which is what feasibility probes that discard everything but the
// verdict want. Like Evaluate, it reuses (and therefore invalidates) the
// scheduler's borrowed buffers: a subsequent EvaluateDelta is an error
// until the next full Evaluate.
func (e *Evaluator) Makespan(m sched.Mapping) (tmSeconds float64, meetsDeadline bool, err error) {
	if !e.bound {
		return 0, false, fmt.Errorf("metrics: Makespan called before Bind")
	}
	e.stats.Makespans++
	e.haveEval = false
	var tm float64
	if e.opt.Iterations <= 1 {
		// The single-iteration T_M is the DAG makespan itself, so the eq. (7)
		// busy-cycle billing the pipelined view needs is skipped.
		if tm, err = e.sch.Makespan(m); err != nil {
			return 0, false, err
		}
	} else {
		s, err := e.sch.Schedule(m)
		if err != nil {
			return 0, false, err
		}
		tm = s.PipelinedMakespanSeconds(e.opt.Iterations)
	}
	return tm, e.opt.DeadlineSec <= 0 || tm <= e.opt.DeadlineSec, nil
}

// evaluate is the shared implementation of Evaluate and EvaluateDelta's
// re-schedule path. With reuseProfile set, m is the mapping of the previous
// call and the per-core load counts and register-pressure popcounts are
// reused instead of recomputed.
func (e *Evaluator) evaluate(m sched.Mapping, reuseProfile bool) (*Evaluation, error) {
	if !e.bound {
		return nil, fmt.Errorf("metrics: Evaluate called before Bind")
	}
	e.stats.Evaluations++
	e.haveEval = false
	s, err := e.sch.Schedule(m)
	if err != nil {
		return nil, err
	}
	cores := e.p.Cores()

	ev := &e.ev
	ev.Schedule = s
	ev.MakespanSec = s.MakespanSeconds()
	ev.DeadlineSec = e.opt.DeadlineSec
	ev.TMSeconds = s.PipelinedMakespanSeconds(e.opt.Iterations)
	ev.TMCycles = ev.TMSeconds * e.nominalHz
	ev.TotalRegBits = 0
	ev.Gamma = 0
	ev.PowerW = 0

	if !reuseProfile {
		// Per-core register pressure: OR the footprint bitmasks of the
		// tasks on each core, then sum the widths of the set bits (eq. 8).
		// The profile depends only on the mapping, so EvaluateDelta's
		// re-schedule path keeps it.
		for c := 0; c < cores; c++ {
			e.coreLoads[c] = 0
			row := e.coreMask[c]
			for w := range row {
				row[w] = 0
			}
		}
		for t, c := range m {
			e.coreLoads[c]++
			row := e.coreMask[c]
			for w, word := range e.taskMask[t] {
				row[w] |= word
			}
		}
		for c := 0; c < cores; c++ {
			var rb int64
			if e.coreLoads[c] > 0 {
				for w, word := range e.coreMask[c] {
					base := w * 64
					for word != 0 {
						i := bits.TrailingZeros64(word)
						rb += e.regBits[base+i]
						word &= word - 1
					}
				}
			}
			e.coreRegBits[c] = rb
		}
		e.lastM = append(e.lastM[:0], m...)
	}

	horizon := ev.TMSeconds
	for c := 0; c < cores; c++ {
		cm := &ev.PerCore[c]
		*cm = CoreMetrics{
			Core:         c,
			BusyCycles:   s.BusyCycles(c),
			BusySec:      s.BusySeconds(c),
			LambdaPerSec: e.lambdaSec[c],
			Lambda:       e.lambdaCyc[c],
		}
		if horizon > 0 {
			if u := cm.BusySec / horizon; u > 1 {
				cm.Utilization = 1
			} else {
				cm.Utilization = u
			}
		}
		e.util[c] = cm.Utilization
		if e.coreLoads[c] > 0 {
			cm.RegBits = e.coreRegBits[c]
			cm.BaselineBits = e.baselineBits
			cm.ExposureSec = ev.TMSeconds
		}
		cm.Gamma = float64(cm.RegBits+cm.BaselineBits) * cm.ExposureSec * cm.LambdaPerSec
		ev.TotalRegBits += cm.RegBits
		ev.Gamma += cm.Gamma
	}

	pw, err := e.p.DynamicPower(s.Scaling, e.util)
	if err != nil {
		return nil, err
	}
	ev.PowerW = pw
	ev.MeetsDeadline = e.opt.DeadlineSec <= 0 || ev.TMSeconds <= e.opt.DeadlineSec
	e.haveEval = true
	return ev, nil
}

// Clone returns an independent deep copy of the evaluation, safe to retain
// after the Evaluator that produced it moves on.
func (ev *Evaluation) Clone() *Evaluation {
	out := *ev
	if ev.Schedule != nil {
		out.Schedule = ev.Schedule.Clone()
	}
	out.PerCore = append([]CoreMetrics(nil), ev.PerCore...)
	return &out
}
