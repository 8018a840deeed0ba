package service

import (
	"container/list"
	"math"
	"strconv"
	"strings"
	"sync"

	"seadopt"
	"seadopt/internal/ingest"
)

// This file holds the two cross-job acceleration registries:
//
//   - reuseRegistry shares the engine's verdict-preserving reuse layer
//     (probe trajectories, the bounds precompute, pooled evaluators)
//     between jobs whose problems share a ProbeKey — same graph, platform,
//     seed and stream-iteration count, whatever their deadline, SER or
//     strategy. Sharing it never changes any result byte.
//
//   - warmRegistry remembers finished Pareto frontiers by problem
//     Fingerprint and deadline so a later Pareto submission over the same
//     workload and deadline — with a different objective set — starts its
//     branch-and-bound from a pre-seeded dominance frontier (WarmFrontier).
//     The ghosts are re-validated against the receiving run's deadline, so
//     the final frontier is byte-identical to a cold run; only the
//     pruned/skipped split of the progress stream may differ. Scalar jobs
//     need no registry: every branch-and-bound run seeds its incumbent from
//     the engine's ranked pass. The WarmStarts counter
//     (seadoptd_warm_starts_total) counts these Pareto warm starts only.
//
// Both are small LRUs: a long-running daemon's memory stays bounded and an
// evicted bundle simply costs the next matching job a cold start.

// warmSig is the eligibility signature of cross-job warm seeding: the
// options that shape realized design points for a fixed workload. Two
// problems with equal Fingerprint and equal warmSig realize identical
// (mapping, evaluation) pairs for every scaling combination they both
// visit, which is exactly the soundness contract of WarmFrontier.
func warmSig(o ingest.Options) string {
	iters := o.StreamIterations
	if iters < 1 {
		iters = 1
	}
	var sb strings.Builder
	sb.WriteString(strconv.FormatInt(o.Seed, 10))
	sb.WriteByte('|')
	sb.WriteString(strconv.Itoa(iters))
	sb.WriteByte('|')
	sb.WriteString(strconv.Itoa(o.SearchMoves))
	sb.WriteByte('|')
	sb.WriteString(strconv.FormatUint(math.Float64bits(o.SER), 16))
	return sb.String()
}

// warmParetoKey addresses a workload's frontier at one deadline: frontier
// ghosts are sound only against runs whose mapper inputs differ at most in
// the objective selection, so the deadline IS part of the key.
func warmParetoKey(fingerprint string, o ingest.Options) string {
	return fingerprint + "|" + warmSig(o) + "|pareto|" +
		strconv.FormatFloat(o.DeadlineSec, 'g', -1, 64)
}

type warmEntry struct {
	key    string
	points []seadopt.WarmPoint
}

// warmRegistry is a goroutine-safe LRU of warm-start seeds.
type warmRegistry struct {
	mu  sync.Mutex
	cap int
	ll  *list.List // front = most recently used; values are *warmEntry
	m   map[string]*list.Element
}

func newWarmRegistry(capacity int) *warmRegistry {
	return &warmRegistry{cap: capacity, ll: list.New(), m: make(map[string]*list.Element)}
}

// touch returns (creating if create is set) the entry for key, promoted to
// most-recently-used. The caller holds r.mu.
func (r *warmRegistry) touch(key string, create bool) *warmEntry {
	if el, ok := r.m[key]; ok {
		r.ll.MoveToFront(el)
		return el.Value.(*warmEntry)
	}
	if !create {
		return nil
	}
	e := &warmEntry{key: key}
	r.m[key] = r.ll.PushFront(e)
	for r.ll.Len() > r.cap {
		oldest := r.ll.Back()
		r.ll.Remove(oldest)
		delete(r.m, oldest.Value.(*warmEntry).key)
	}
	return e
}

// Frontier returns a copy of the recorded frontier seed points for key.
func (r *warmRegistry) Frontier(key string) []seadopt.WarmPoint {
	r.mu.Lock()
	defer r.mu.Unlock()
	e := r.touch(key, false)
	if e == nil || len(e.points) == 0 {
		return nil
	}
	return append([]seadopt.WarmPoint(nil), e.points...)
}

// RecordFrontier replaces key's frontier seed with the latest realized one.
func (r *warmRegistry) RecordFrontier(key string, points []seadopt.WarmPoint) {
	if len(points) == 0 {
		return
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	e := r.touch(key, true)
	e.points = append([]seadopt.WarmPoint(nil), points...)
}

type reuseEntry struct {
	key    string
	bundle *seadopt.ExploreReuse
}

// reuseRegistry is a goroutine-safe LRU of engine reuse bundles keyed by
// ProbeKey. Evicting an entry only detaches it from future jobs; flights
// already holding the bundle keep using it safely.
type reuseRegistry struct {
	mu  sync.Mutex
	cap int
	ll  *list.List // front = most recently used; values are *reuseEntry
	m   map[string]*list.Element
}

func newReuseRegistry(capacity int) *reuseRegistry {
	return &reuseRegistry{cap: capacity, ll: list.New(), m: make(map[string]*list.Element)}
}

// Get returns the shared reuse bundle for key, creating it on first use.
func (r *reuseRegistry) Get(key string) *seadopt.ExploreReuse {
	r.mu.Lock()
	defer r.mu.Unlock()
	if el, ok := r.m[key]; ok {
		r.ll.MoveToFront(el)
		return el.Value.(*reuseEntry).bundle
	}
	e := &reuseEntry{key: key, bundle: seadopt.NewExploreReuse()}
	r.m[key] = r.ll.PushFront(e)
	for r.ll.Len() > r.cap {
		oldest := r.ll.Back()
		r.ll.Remove(oldest)
		delete(r.m, oldest.Value.(*reuseEntry).key)
	}
	return e.bundle
}
