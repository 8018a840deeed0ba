// Command benchgate is the CI benchmark-regression gate: it parses raw
// `go test -bench` output (typically run with -count=5 -benchmem) and
// compares it against the repository's committed benchmark baselines
// (BENCH_explore.json, BENCH_prune.json, BENCH_scale.json,
// BENCH_sweep.json, BENCH_dist.json, BENCH_sched.json), failing the
// build when a machine-independent quantity regresses beyond the
// tolerance. Baseline files are given positionally or via repeated
// -baseline flags, interchangeably.
//
//	go test -run '^$' -bench 'Explore|OptimizeMPEG2|Evaluate' \
//	    -benchmem -count=5 . | tee bench.txt
//	benchgate -bench bench.txt -baseline BENCH_explore.json \
//	    -baseline BENCH_prune.json BENCH_scale.json
//
// Raw ns/op is meaningless across runner generations, so the gate checks
// only quantities that travel:
//
//   - allocs/op for every baselined benchmark: allocation counts are a
//     deterministic property of the code, so the per-op minimum across
//     -count repetitions must stay within -tol of the committed value
//     (improvements always pass);
//   - wall-clock *ratios* of paired benchmarks: for every
//     "<X>Exhaustive"/"<X>BnB" strategy pair, every "<X>/Cold"/"<X>/Warm"
//     warm-start pair, every "<X>/SingleNode"/"<X>/TwoShard" distribution
//     pair and every "<X>/Reference"/"<X>/Kernel" scheduler pair in the
//     baselines, the measured speedup (slow ns/op ÷ fast ns/op,
//     best-of-count) must stay within -tol of the committed speedup —
//     these wins are relative, so the ratio is comparable on any host.
//
// A benchmark named in the baselines but absent from the measured output
// FAILS the gate with the file that names it: a renamed or deleted
// benchmark would otherwise silently check nothing forever. Either widen
// the -bench filter to measure it or regenerate the baseline that names
// it. Records that must not be gated (e.g. wall-clock references too slow
// for CI) belong outside the "before"/"after" sections. Ratio pairs whose
// counterpart is absent are still reported as SKIP — the pair check is
// already covered by the two per-benchmark presence checks.
package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"sort"
	"strconv"
	"strings"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// benchRecord mirrors the per-benchmark objects of the committed baseline
// files' "after" sections.
type benchRecord struct {
	NsPerOp     float64 `json:"ns_per_op"`
	BytesPerOp  float64 `json:"bytes_per_op"`
	AllocsPerOp float64 `json:"allocs_per_op"`
}

// baselineFile is the schema shared by BENCH_explore.json and
// BENCH_prune.json: free-form provenance fields plus "before"/"after" maps
// of recorded results. Both sections are read — the strategy-pair records
// straddle them (exhaustive under "before", branch-and-bound under
// "after") — with "after" winning when a benchmark appears in both.
type baselineFile struct {
	// Raw sections: entries are benchmark records except for provenance
	// strings ("commit"), so each value is decoded tolerantly.
	Before map[string]json.RawMessage `json:"before"`
	After  map[string]json.RawMessage `json:"after"`
}

// measured is the best (minimum) observation of one benchmark across the
// -count repetitions in the bench output.
type measured struct {
	nsPerOp     float64
	allocsPerOp float64
	samples     int
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := newFlags()
	if err := fs.parse(args); err != nil {
		fmt.Fprintln(stderr, "benchgate:", err)
		return 2
	}
	baseline, source, err := loadBaselines(fs.baselines)
	if err != nil {
		fmt.Fprintln(stderr, "benchgate:", err)
		return 2
	}
	var in io.Reader = os.Stdin
	if fs.benchPath != "-" {
		f, err := os.Open(fs.benchPath)
		if err != nil {
			fmt.Fprintln(stderr, "benchgate:", err)
			return 2
		}
		defer f.Close()
		in = f
	}
	got, err := parseBenchOutput(in)
	if err != nil {
		fmt.Fprintln(stderr, "benchgate:", err)
		return 2
	}

	lines, failures := evaluate(baseline, source, got, fs.tol)
	performed := 0
	for _, line := range lines {
		fmt.Fprintln(stdout, line)
		if !strings.HasPrefix(line, "SKIP") {
			performed++
		}
	}
	if performed == 0 {
		fmt.Fprintln(stderr, "benchgate: no baselined benchmark appears in the measured output; the gate checked nothing")
		return 1
	}
	if failures > 0 {
		fmt.Fprintf(stderr, "benchgate: %d regression(s) beyond ±%.0f%% tolerance\n", failures, fs.tol*100)
		return 1
	}
	fmt.Fprintf(stdout, "benchgate: %d check(s) passed within ±%.0f%% tolerance\n", performed, fs.tol*100)
	return 0
}

type flags struct {
	benchPath string
	tol       float64
	baselines []string
}

func newFlags() *flags { return &flags{benchPath: "-", tol: 0.20} }

func (f *flags) parse(args []string) error {
	i := 0
	for ; i < len(args); i++ {
		switch arg := args[i]; {
		case arg == "-bench" || arg == "--bench":
			i++
			if i >= len(args) {
				return fmt.Errorf("-bench needs a file path (or - for stdin)")
			}
			f.benchPath = args[i]
		case arg == "-baseline" || arg == "--baseline":
			i++
			if i >= len(args) {
				return fmt.Errorf("-baseline needs a baseline JSON path (repeat the flag for several)")
			}
			f.baselines = append(f.baselines, args[i])
		case arg == "-tol" || arg == "--tol":
			i++
			if i >= len(args) {
				return fmt.Errorf("-tol needs a fraction (e.g. 0.20)")
			}
			v, err := strconv.ParseFloat(args[i], 64)
			if err != nil || v <= 0 || v >= 1 {
				return fmt.Errorf("-tol %q must be a fraction in (0,1)", args[i])
			}
			f.tol = v
		case strings.HasPrefix(arg, "-"):
			return fmt.Errorf("unknown flag %q (usage: benchgate [-bench file] [-tol 0.20] [-baseline file]... [baseline.json...])", arg)
		default:
			f.baselines = append(f.baselines, arg)
		}
	}
	if len(f.baselines) == 0 {
		return fmt.Errorf("no baseline files given (usage: benchgate [-bench file] [-tol 0.20] [-baseline file]... [baseline.json...])")
	}
	return nil
}

// loadBaselines merges the benchmark records of every baseline file —
// "before" first, then "after" overriding (a benchmark recorded in both is
// baselined at its improved figures) — keying by name without the
// "Benchmark" prefix. The "before" commit field is provenance, not a
// measurable. The second map records which file names each benchmark, so a
// baselined benchmark missing from the measured output can fail with the
// file to fix.
func loadBaselines(paths []string) (map[string]benchRecord, map[string]string, error) {
	merged := make(map[string]benchRecord)
	source := make(map[string]string)
	for _, path := range paths {
		data, err := os.ReadFile(path)
		if err != nil {
			return nil, nil, err
		}
		var bf baselineFile
		if err := json.Unmarshal(data, &bf); err != nil {
			return nil, nil, fmt.Errorf("%s: %w", path, err)
		}
		if len(bf.After) == 0 {
			return nil, nil, fmt.Errorf("%s: no \"after\" benchmark records", path)
		}
		for _, section := range []map[string]json.RawMessage{bf.Before, bf.After} {
			for name, raw := range section {
				var rec benchRecord
				if err := json.Unmarshal(raw, &rec); err != nil || rec.NsPerOp <= 0 {
					continue // provenance entries like "commit"
				}
				key := strings.TrimPrefix(name, "Benchmark")
				merged[key] = rec
				source[key] = path
			}
		}
	}
	return merged, source, nil
}

// parseBenchOutput extracts per-benchmark best-of-count results from raw
// `go test -bench` output lines such as
//
//	BenchmarkExploreMPEG2BnB-8   1690   699711 ns/op   120518 B/op   1237 allocs/op
func parseBenchOutput(r io.Reader) (map[string]measured, error) {
	out := make(map[string]measured)
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	for sc.Scan() {
		fields := strings.Fields(sc.Text())
		if len(fields) < 4 || !strings.HasPrefix(fields[0], "Benchmark") {
			continue
		}
		name := strings.TrimPrefix(fields[0], "Benchmark")
		// Strip the -GOMAXPROCS suffix.
		if i := strings.LastIndex(name, "-"); i > 0 {
			if _, err := strconv.Atoi(name[i+1:]); err == nil {
				name = name[:i]
			}
		}
		m := out[name]
		for i := 2; i+1 < len(fields); i += 2 {
			v, err := strconv.ParseFloat(fields[i], 64)
			if err != nil {
				continue
			}
			switch fields[i+1] {
			case "ns/op":
				if m.samples == 0 || v < m.nsPerOp {
					m.nsPerOp = v
				}
			case "allocs/op":
				if m.samples == 0 || v < m.allocsPerOp {
					m.allocsPerOp = v
				}
			}
		}
		m.samples++
		out[name] = m
	}
	return out, sc.Err()
}

// evaluate runs every applicable check and renders one line per check;
// failures counts the lines that FAILed.
func evaluate(baseline map[string]benchRecord, source map[string]string, got map[string]measured, tol float64) (lines []string, failures int) {
	names := make([]string, 0, len(baseline))
	for name := range baseline {
		names = append(names, name)
	}
	sort.Strings(names)

	// Allocation gate: deterministic per-op counts must not regress. A
	// baselined benchmark the measured output never mentions is a failure,
	// not a skip — renames and deletions must not hollow the gate out.
	for _, name := range names {
		rec := baseline[name]
		m, ok := got[name]
		if !ok {
			lines = append(lines, fmt.Sprintf(
				"FAIL  %-36s baselined in %s but absent from the measured output — renamed or deleted? widen the -bench filter to cover it, or regenerate that baseline",
				name, source[name]))
			failures++
			continue
		}
		limit := rec.AllocsPerOp * (1 + tol)
		status := "PASS"
		if m.allocsPerOp > limit {
			status = "FAIL"
			failures++
		}
		lines = append(lines, fmt.Sprintf("%s  %-36s allocs/op %8.0f (baseline %8.0f, limit %8.0f, %d sample(s))",
			status, name, m.allocsPerOp, rec.AllocsPerOp, limit, m.samples))
	}

	// Ratio gate: for every baselined slow/fast suffix pair — strategy
	// pairs ("...Exhaustive" vs "...BnB"), warm-start pairs (".../Cold"
	// vs ".../Warm"), distribution pairs (".../SingleNode" vs
	// ".../TwoShard") and scheduler-kernel pairs (".../Reference" vs
	// ".../Kernel") — the measured speedup (slow ns/op ÷ fast ns/op,
	// best-of-count) must hold within tolerance.
	ratioPairs := []struct{ slow, fast, label string }{
		{"Exhaustive", "BnB", " speedup"},
		{"Cold", "Warm", " warm speedup"},
		{"SingleNode", "TwoShard", " shard speedup"},
		{"Reference", "Kernel", " kernel speedup"},
	}
	for _, rp := range ratioPairs {
		for _, name := range names {
			if !strings.HasSuffix(name, rp.slow) {
				continue
			}
			stem := strings.TrimSuffix(name, rp.slow)
			pair := stem + rp.fast
			recSlow := baseline[name]
			recFast, ok := baseline[pair]
			if !ok || recFast.NsPerOp <= 0 || recSlow.NsPerOp <= 0 {
				continue
			}
			mSlow, ok1 := got[name]
			mFast, ok2 := got[pair]
			checkName := strings.TrimSuffix(stem, "/") + rp.label
			if !ok1 || !ok2 {
				lines = append(lines, fmt.Sprintf("SKIP  %-36s pair not fully measured", checkName))
				continue
			}
			if mFast.nsPerOp <= 0 {
				lines = append(lines, fmt.Sprintf("FAIL  %-36s %s measured 0 ns/op", checkName, rp.fast))
				failures++
				continue
			}
			want := recSlow.NsPerOp / recFast.NsPerOp
			gotRatio := mSlow.nsPerOp / mFast.nsPerOp
			floor := want * (1 - tol)
			status := "PASS"
			if gotRatio < floor {
				status = "FAIL"
				failures++
			}
			lines = append(lines, fmt.Sprintf("%s  %-36s %.2fx (baseline %.2fx, floor %.2fx)",
				status, checkName, gotRatio, want, floor))
		}
	}
	return lines, failures
}
