package main

import (
	"bufio"
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"time"

	"seadopt"
	"seadopt/internal/arch"
	"seadopt/internal/ingest"
	"seadopt/internal/service"
	"seadopt/internal/taskgraph"
)

// served_store: the daemon in-process (service.NewServer with an fsync'd
// journal, 2 workers at engine Parallelism 1) behind its HTTP handler on a
// loopback listener, driven by 2 closed-loop connections. Each connection
// POSTs a job, follows its SSE progress stream to the end, then GETs the
// result. The job list repeats a 20-job block of fixed composition:
//
//   - 6 fresh MPEG-2 jobs on 4×3 ARM7 cores and 4 exact repeats of them;
//   - 4 fresh 40-task §V graphs on 16×3 ARM7 cores, 3 deadline-only
//     variants of earlier ones and 1 exact repeat;
//   - 2 4-point deadline sweeps on 16×3-core graphs.
//
// Graphs travel as JSON, TGFF or DOT. A repeat or variant refers to a job
// at least servedMinRefGap positions earlier, and its connection waits for
// that job to finish before submitting, so cache hits and warm starts are
// deterministic instead of racing into coalescing.
const (
	servedBlock     = 20
	servedPool      = 6
	servedTasks     = 40
	servedWorkers   = 2
	servedConns     = 2
	servedMinRefGap = 3
	servedMaxRefGap = 60
	servedTimeout   = 30 * time.Second
	// servedChecked is how many fresh scalar jobs of each family in the
	// first block are compared byte for byte with in-process results.
	servedChecked = 2
)

var servedWorkload = &workload{
	rssAt:  300,
	conns:  servedConns,
	setup:  func(e *env) (instance, int, error) { return newServed(e) },
	layers: servedLayers,
}

// Job kinds of the served block.
const (
	kindMFresh = iota
	kindMRepeat
	kindGFresh
	kindGVariant
	kindGSweep
	kindGRepeat
)

// servedBlockKinds is the composition of every block, shuffled per block.
var servedBlockKinds = []int{
	kindMFresh, kindMFresh, kindMFresh, kindMFresh, kindMFresh, kindMFresh,
	kindMRepeat, kindMRepeat, kindMRepeat, kindMRepeat,
	kindGFresh, kindGFresh, kindGFresh, kindGFresh,
	kindGVariant, kindGVariant, kindGVariant,
	kindGSweep, kindGSweep,
	kindGRepeat,
}

// servedSpec is one job of the served list.
type servedSpec struct {
	kind  int
	doc   int // index into servedInst.docs
	cores int
	ref   int // job repeated or varied; -1 for fresh jobs
	opts  ingest.Options
}

// servedDoc is one graph document plus its in-process system.
type servedDoc struct {
	graphDoc
	sys *seadopt.System
}

type servedInst struct {
	dir    string
	srv    *service.Server
	ts     *httptest.Server
	client *http.Client

	docs      []servedDoc // MPEG-2 docs first, then pool docs
	mpegDocs  int
	platforms map[int]*seadopt.Platform

	mu      sync.Mutex
	rng     *rand.Rand
	specs   []servedSpec
	mpegN   int         // fresh MPEG-2 jobs generated so far
	variant map[int]int // variants generated per root job
	done    map[int]chan struct{}
	hashes  map[int][32]byte

	// Traced-phase accumulators.
	submit, waitS, runS, overhead []float64
	cacheHits                     int
	stats                         map[int]*statsSum // by core count
}

func newServed(e *env) (*servedInst, int, error) {
	in := &servedInst{
		rng:       rand.New(rand.NewSource(e.seed)),
		variant:   map[int]int{},
		done:      map[int]chan struct{}{},
		hashes:    map[int][32]byte{},
		platforms: map[int]*seadopt.Platform{},
		stats:     map[int]*statsSum{4: {}, 16: {}},
	}
	for _, cores := range []int{4, 16} {
		p, err := arch.NewPlatform(cores, arch.ARM7Levels3())
		if err != nil {
			return nil, 0, err
		}
		in.platforms[cores] = p
	}
	// Every document is parsed the way the service parses it, so the job
	// list holds only inputs the daemon accepts.
	addDocs := func(g *taskgraph.Graph, cores int) error {
		for _, f := range docFormats {
			d, err := render(g, f)
			if err != nil {
				return err
			}
			pg, err := ingest.ParseBytes(d.format, d.data)
			if err != nil {
				return fmt.Errorf("generated %s document rejected: %w", f, err)
			}
			sys, err := seadopt.NewSystem(pg, in.platforms[cores])
			if err != nil {
				return err
			}
			in.docs = append(in.docs, servedDoc{d, sys})
		}
		return nil
	}
	if err := addDocs(taskgraph.MPEG2(), 4); err != nil {
		return nil, 0, err
	}
	in.mpegDocs = len(in.docs)
	pool, err := graphPool(taskgraph.DefaultRandomConfig(servedTasks), servedPool)
	if err != nil {
		return nil, 0, err
	}
	for _, g := range pool {
		if err := addDocs(g, 16); err != nil {
			return nil, 0, err
		}
	}
	in.genBlock()

	in.dir, err = os.MkdirTemp(e.workdir, "store-")
	if err != nil {
		return nil, 0, err
	}
	in.srv, err = service.NewServer(service.Config{
		Workers:           servedWorkers,
		EngineParallelism: 1,
		StoreDir:          in.dir,
	})
	if err != nil {
		os.RemoveAll(in.dir)
		return nil, 0, err
	}
	in.ts = httptest.NewServer(in.srv.Handler())
	in.client = &http.Client{Transport: &http.Transport{MaxIdleConnsPerHost: 2 * servedConns}}
	return in, servedBlock, nil
}

func mpegOptions(seed int64) ingest.Options {
	return ingest.Options{DeadlineSec: seadopt.MPEG2Deadline, StreamIterations: seadopt.MPEG2Frames, Seed: seed}
}

var servedDeadline = seadopt.RandomGraphDeadline(servedTasks) / 1.5

// genBlock appends one block to the job list; the caller holds in.mu (or
// owns in exclusively). Generation depends only on the seed and the
// blocks before, never on timing.
func (in *servedInst) genBlock() {
	base := len(in.specs)
	kinds := append([]int(nil), servedBlockKinds...)
	in.rng.Shuffle(len(kinds), func(a, b int) { kinds[a], kinds[b] = kinds[b], kinds[a] })
	// Which pool graphs a block sweeps, each graph's format and every
	// engine seed follow from the block number alone, so every seed runs
	// the same set of problems; the seed orders them and picks references.
	// Per-problem cost varies up to 3x with the engine seed, which would
	// otherwise dominate the run-to-run spread of the latency tail.
	b := base / servedBlock
	sweeps := map[int]bool{(2 * b) % servedPool: true, (2*b + 1) % servedPool: true}
	var fresh, swept []int
	for g := 0; g < servedPool; g++ {
		if sweeps[g] {
			swept = append(swept, g)
		} else {
			fresh = append(fresh, g)
		}
	}
	in.rng.Shuffle(len(fresh), func(a, b int) { fresh[a], fresh[b] = fresh[b], fresh[a] })
	for k := range kinds {
		i := base + k
		// A reference with no eligible target yet (only possible in the
		// first block) trades places with a later fresh job of its family,
		// or becomes one.
		if isRef(kinds[k]) && in.refTarget(kinds[k], i, false) < 0 {
			swapped := false
			for l := k + 1; l < len(kinds) && !swapped; l++ {
				if family(kinds[l]) == family(kinds[k]) && !isRef(kinds[l]) {
					kinds[k], kinds[l] = kinds[l], kinds[k]
					swapped = true
				}
			}
			if !swapped {
				kinds[k] = [2]int{kindMFresh, kindGFresh}[family(kinds[k])]
			}
		}
		kind := kinds[k]
		sp := servedSpec{kind: kind, ref: -1}
		switch kind {
		case kindMFresh:
			sp.doc, sp.cores = in.mpegN%in.mpegDocs, 4
			in.mpegN++
			sp.opts = mpegOptions(int64(in.mpegN))
		case kindGFresh, kindGSweep:
			// A fresh graph job is a pool graph under a new engine seed, so
			// its problem key, fingerprint and probe universe are all new.
			g, seed := 0, int64(b+1)
			switch {
			case kind == kindGSweep:
				g, swept = swept[0], swept[1:]
			case len(fresh) > 0:
				g, fresh = fresh[0], fresh[1:]
			default:
				// A first-block reference turned fresh: every pool graph
				// is taken, so reuse one under a seed no block uses.
				g, seed = k%servedPool, int64(1<<20+k)
			}
			sp.doc, sp.cores = in.mpegDocs+3*g+(g+b)%3, 16
			sp.opts = ingest.Options{DeadlineSec: servedDeadline, Seed: seed}
			if kind == kindGSweep {
				sp.opts.DeadlineSec = 0
				sp.opts.Mode = ingest.ModeSweep
				for _, f := range []float64{1.0, 1.1, 1.2, 1.3} {
					sp.opts.SweepDeadlines = append(sp.opts.SweepDeadlines, servedDeadline*f)
				}
			}
		default:
			ref := in.refTarget(kind, i, true)
			if ref < 0 {
				panic("perfbench: reference job without a target") // genBlock's swap rules this out
			}
			sp = in.specs[ref]
			sp.kind, sp.ref = kind, ref
			if kind == kindGVariant {
				root := ref
				for in.specs[root].kind == kindGVariant {
					root = in.specs[root].ref
				}
				in.variant[root]++
				sp.opts.DeadlineSec = servedDeadline * (1 + 0.05*float64(in.variant[root]))
			}
		}
		in.specs = append(in.specs, sp)
	}
}

func isRef(kind int) bool {
	return kind == kindMRepeat || kind == kindGVariant || kind == kindGRepeat
}

// family is 0 for MPEG-2 kinds and 1 for 16-core graph kinds.
func family(kind int) int {
	if kind == kindMFresh || kind == kindMRepeat {
		return 0
	}
	return 1
}

// refTarget picks the job a reference kind at position i repeats or
// varies, among jobs servedMinRefGap to servedMaxRefGap positions earlier:
// MPEG-2 repeats target fresh MPEG-2 jobs, graph repeats any graph job,
// variants a scalar graph job. With draw false it only reports whether a
// target exists (-1 if not) without consuming randomness.
func (in *servedInst) refTarget(kind, i int, draw bool) int {
	var cands []int
	for j := i - servedMinRefGap; j >= 0 && j >= i-servedMaxRefGap; j-- {
		if j >= len(in.specs) {
			continue
		}
		k := in.specs[j].kind
		switch kind {
		case kindMRepeat:
			if k == kindMFresh {
				cands = append(cands, j)
			}
		case kindGRepeat:
			if family(k) == 1 && k != kindGRepeat {
				cands = append(cands, j)
			}
		case kindGVariant:
			if k == kindGFresh || k == kindGVariant {
				cands = append(cands, j)
			}
		}
	}
	if len(cands) == 0 {
		return -1
	}
	if !draw {
		return cands[0]
	}
	return cands[in.rng.Intn(len(cands))]
}

// spec returns job i, generating blocks on demand, plus the channel closed
// when its reference (if any) finishes.
func (in *servedInst) spec(i int) (servedSpec, chan struct{}) {
	in.mu.Lock()
	defer in.mu.Unlock()
	for len(in.specs) <= i {
		in.genBlock()
	}
	sp := in.specs[i]
	if sp.ref < 0 {
		return sp, nil
	}
	return sp, in.doneChan(sp.ref)
}

// doneChan returns job i's completion channel; the caller holds in.mu.
func (in *servedInst) doneChan(i int) chan struct{} {
	ch, ok := in.done[i]
	if !ok {
		ch = make(chan struct{})
		in.done[i] = ch
	}
	return ch
}

// envelope renders a job as the JSON submission the daemon receives.
func (in *servedInst) envelope(sp servedSpec) ([]byte, error) {
	d := in.docs[sp.doc]
	return json.Marshal(struct {
		Format   string         `json:"format"`
		Graph    string         `json:"graph"`
		Platform map[string]int `json:"platform"`
		Options  ingest.Options `json:"options"`
	}{string(d.format), string(d.data), map[string]int{"cores": sp.cores, "levels": 3}, sp.opts})
}

// describe renders the first three blocks' envelopes, for the determinism
// test.
func (in *servedInst) describe() ([]byte, error) {
	var buf bytes.Buffer
	for i := 0; i < 3*servedBlock; i++ {
		sp, _ := in.spec(i)
		env, err := in.envelope(sp)
		if err != nil {
			return nil, err
		}
		fmt.Fprintf(&buf, "%d ref=%d %s\n", sp.kind, sp.ref, env)
	}
	return buf.Bytes(), nil
}

// jobStatus is the part of service.JobStatus the client reads.
type jobStatus struct {
	ID           string                `json:"id"`
	State        string                `json:"state"`
	CacheHit     bool                  `json:"cache_hit"`
	Error        string                `json:"error"`
	Result       json.RawMessage       `json:"result"`
	QueueWaitSec float64               `json:"queue_wait_sec"`
	RunSec       float64               `json:"run_sec"`
	Stats        *seadopt.ExploreStats `json:"engine_stats"`
}

// served runs one job over HTTP: POST, follow progress, GET. It returns
// the final status and the POST round-trip time.
func (in *servedInst) served(ctx context.Context, body []byte) (*jobStatus, float64, error) {
	t0 := time.Now()
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, in.ts.URL+"/v1/jobs", bytes.NewReader(body))
	if err != nil {
		return nil, 0, err
	}
	req.Header.Set("Content-Type", "application/json")
	var st jobStatus
	if err := in.call(req, &st); err != nil {
		return nil, 0, fmt.Errorf("submit: %w", err)
	}
	submit := time.Since(t0).Seconds()
	if st.ID == "" {
		return nil, submit, errors.New("submit: response carries no job id")
	}
	// Follow the SSE stream to its terminal event instead of polling.
	req, err = http.NewRequestWithContext(ctx, http.MethodGet, in.ts.URL+"/v1/jobs/"+st.ID+"/progress", nil)
	if err != nil {
		return nil, submit, err
	}
	resp, err := in.client.Do(req)
	if err != nil {
		return nil, submit, fmt.Errorf("progress: %w", err)
	}
	sawDone := false
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 64<<10), 64<<20)
	for sc.Scan() {
		if sc.Text() == "event: done" {
			sawDone = true
		}
	}
	scanErr := sc.Err()
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK || scanErr != nil || !sawDone {
		return nil, submit, fmt.Errorf("progress: status %d, done event %v, read error %v", resp.StatusCode, sawDone, scanErr)
	}
	req, err = http.NewRequestWithContext(ctx, http.MethodGet, in.ts.URL+"/v1/jobs/"+st.ID, nil)
	if err != nil {
		return nil, submit, err
	}
	var fin jobStatus
	if err := in.call(req, &fin); err != nil {
		return nil, submit, fmt.Errorf("result: %w", err)
	}
	if fin.State != string(service.StateDone) {
		return nil, submit, fmt.Errorf("job %s ended %s: %s", fin.ID, fin.State, fin.Error)
	}
	return &fin, submit, nil
}

// call performs req and decodes a 2xx JSON response into v; any other
// status is an error.
func (in *servedInst) call(req *http.Request, v any) error {
	resp, err := in.client.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		return err
	}
	if resp.StatusCode/100 != 2 {
		return fmt.Errorf("status %d: %s", resp.StatusCode, strings.TrimSpace(string(data)))
	}
	return json.Unmarshal(data, v)
}

func (in *servedInst) warm() error {
	sp := servedSpec{doc: 0, cores: 4, ref: -1, opts: mpegOptions(0)}
	body, err := in.envelope(sp)
	if err != nil {
		return err
	}
	ctx, cancel := context.WithTimeout(context.Background(), servedTimeout)
	defer cancel()
	st, _, err := in.served(ctx, body)
	if err != nil {
		return err
	}
	return in.check(sp, st.Result)
}

func (in *servedInst) do(i int, tr *tracer) outcome {
	sp, refDone := in.spec(i)
	defer func() {
		in.mu.Lock()
		close(in.doneChan(i))
		in.mu.Unlock()
	}()
	if refDone != nil {
		<-refDone
	}
	body, err := in.envelope(sp)
	if err != nil {
		return outcome{err: err}
	}
	ctx, cancel := context.WithTimeout(context.Background(), servedTimeout)
	defer cancel()
	start := time.Now()
	st, submit, err := in.served(ctx, body)
	end := time.Now()
	lat := end.Sub(start).Seconds()
	if err != nil {
		return outcome{latency: lat, err: err}
	}
	h := sha256.Sum256(st.Result)
	in.mu.Lock()
	in.hashes[i] = h
	var refHash [32]byte
	if sp.ref >= 0 {
		refHash = in.hashes[sp.ref]
	}
	in.mu.Unlock()
	if err := in.check(sp, st.Result); err != nil {
		return outcome{latency: lat, hash: h, err: err}
	}
	if (sp.kind == kindMRepeat || sp.kind == kindGRepeat) && h != refHash {
		return outcome{latency: lat, hash: h, err: fmt.Errorf("job %d: repeat of job %d returned different bytes", i, sp.ref)}
	}
	if tr != nil {
		sub := start.Add(time.Duration(submit * 1e9))
		tr.add(i, "service.job", "", start, end)
		tr.add(i, "service.submit", "service.job", start, sub)
		tr.add(i, "service.progress_and_result", "service.job", sub, end)
		in.mu.Lock()
		in.submit = append(in.submit, submit)
		in.waitS = append(in.waitS, st.QueueWaitSec)
		in.runS = append(in.runS, st.RunSec)
		in.overhead = append(in.overhead, lat-st.RunSec-st.QueueWaitSec)
		if st.CacheHit {
			in.cacheHits++
		}
		in.mu.Unlock()
		if !st.CacheHit && st.Stats != nil {
			in.stats[sp.cores].add(st.Stats)
		}
	}
	return outcome{latency: lat, hash: h}
}

// check re-evaluates every design of a result through System.Evaluate on
// the same document the daemon parsed.
func (in *servedInst) check(sp servedSpec, result []byte) error {
	sys := in.docs[sp.doc].sys
	o := seadopt.OptimizeOptions{DeadlineSec: sp.opts.DeadlineSec, StreamIterations: sp.opts.StreamIterations, Seed: sp.opts.Seed}
	if sp.opts.Mode != ingest.ModeSweep {
		return checkDesign(sys, o, result)
	}
	var sw struct {
		Points []struct {
			DeadlineSec float64         `json:"deadline_sec"`
			Design      json.RawMessage `json:"design"`
		} `json:"points"`
	}
	if err := json.Unmarshal(result, &sw); err != nil {
		return fmt.Errorf("check: decoding sweep: %w", err)
	}
	if len(sw.Points) != len(sp.opts.SweepDeadlines) {
		return fmt.Errorf("check: sweep returned %d points, want %d", len(sw.Points), len(sp.opts.SweepDeadlines))
	}
	for _, pt := range sw.Points {
		o.DeadlineSec = pt.DeadlineSec
		if err := checkDesign(sys, o, pt.Design); err != nil {
			return err
		}
	}
	return nil
}

// verify compares the first block's first fresh scalar jobs of each family
// byte for byte with the in-process Design JSON for the same problem.
func (in *servedInst) verify(ph *phase) (int, string) {
	bad, checked := 0, 0
	want := map[int]int{kindMFresh: servedChecked, kindGFresh: servedChecked}
	for i := 0; i < servedBlock && i < len(ph.jobs); i++ {
		sp, _ := in.spec(i)
		if want[sp.kind] == 0 {
			continue
		}
		want[sp.kind]--
		checked++
		o := seadopt.OptimizeOptions{DeadlineSec: sp.opts.DeadlineSec, StreamIterations: sp.opts.StreamIterations,
			Seed: sp.opts.Seed, Parallelism: 1}
		d, err := in.docs[sp.doc].sys.OptimizeContext(context.Background(), o)
		var b []byte
		if err == nil {
			b, err = json.Marshal(d)
		}
		if err != nil || ph.jobs[i].err != nil || sha256.Sum256(b) != ph.jobs[i].hash {
			bad++
		}
	}
	return bad, fmt.Sprintf("every served design re-evaluated through System.Evaluate; repeats byte-equal to their originals; "+
		"%d served results byte-compared with in-process OptimizeContext, %d differ", checked, bad)
}

func (in *servedInst) close() {
	in.ts.Close()
	in.client.CloseIdleConnections()
	ctx, cancel := context.WithTimeout(context.Background(), servedTimeout)
	defer cancel()
	if err := in.srv.Close(ctx); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench: closing daemon:", err)
	}
	os.RemoveAll(in.dir)
}

// scrape reads the daemon's /metrics counters, summing labelled series.
func (in *servedInst) scrape() (map[string]float64, error) {
	resp, err := in.client.Get(in.ts.URL + "/metrics")
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	out := map[string]float64{}
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		line := sc.Text()
		if strings.HasPrefix(line, "#") {
			continue
		}
		name, val, ok := strings.Cut(line, " ")
		if !ok {
			continue
		}
		if k := strings.IndexByte(name, '{'); k >= 0 {
			name = name[:k]
		}
		if v, err := strconv.ParseFloat(val, 64); err == nil {
			out[name] += v
		}
	}
	return out, sc.Err()
}

// journalBytes sums the sizes of the store's files.
func (in *servedInst) journalBytes() int64 {
	var n int64
	filepath.Walk(in.dir, func(_ string, fi os.FileInfo, err error) error {
		if err == nil && !fi.IsDir() {
			n += fi.Size()
		}
		return nil
	})
	return n
}

func servedLayers(inst instance, e *env, ph *phase) (map[string]float64, error) {
	in := inst.(*servedInst)
	vals := map[string]float64{}
	m, err := in.scrape()
	if err != nil {
		return nil, err
	}
	in.mu.Lock()
	n := float64(len(in.submit))
	vals["service.submit_s"] = mean(in.submit)
	vals["service.queue_wait_s"] = mean(in.waitS)
	vals["service.run_s"] = mean(in.runS)
	vals["service.overhead_s"] = mean(in.overhead)
	vals["service.cache_hit_frac"] = float64(in.cacheHits) / n
	in.mu.Unlock()
	jobs := float64(len(ph.jobs))
	if ex := m["seadoptd_engine_executions_total"]; ex > 0 {
		vals["service.warm_start_frac"] = m["seadoptd_warm_starts_total"] / ex
	}
	vals["service.rejected_frac"] = m["seadoptd_rejected_total"] / jobs
	vals["service.journal_bytes_per_job"] = float64(in.journalBytes()) / jobs

	// Engine telemetry of both families together, ledger per family.
	all := &statsSum{}
	for _, s := range in.stats {
		all.merge(s)
	}
	all.into(vals)

	rng := rand.New(rand.NewSource(e.seed))
	costs := map[int]callCosts{}
	mpeg := in.docs[0].sys
	c4, err := measureCalls(mpeg.Graph, mpeg.Platform, seadopt.MPEG2Frames, seadopt.MPEG2Deadline, rng)
	if err != nil {
		return nil, err
	}
	costs[4] = c4
	var c16s []callCosts
	var docs []graphDoc
	for g := 0; g < 2; g++ {
		sys := in.docs[in.mpegDocs+3*g].sys
		c, err := measureCalls(sys.Graph, sys.Platform, 1, servedDeadline, rng)
		if err != nil {
			return nil, err
		}
		c16s = append(c16s, c)
	}
	costs[16] = meanCosts(c16s)
	meanCosts([]callCosts{costs[4], costs[16]}).into(vals)
	for _, d := range in.docs {
		docs = append(docs, d.graphDoc)
	}
	parseMs, keyMs, err := measureIngest(docs, in.platforms[16], ingest.Options{DeadlineSec: servedDeadline})
	if err != nil {
		return nil, err
	}
	vals["ingest.parse_ms"] = parseMs
	vals["ingest.key_ms"] = keyMs

	explained := (parseMs + keyMs) * 1e-3 * n
	for cores, s := range in.stats {
		explained += s.explained(costs[cores]) * float64(s.jobs)
	}
	vals["ledger.residual_frac"] = 1 - explained/n/mean(okLatencies(ph))
	return vals, nil
}
