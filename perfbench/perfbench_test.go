package main

import (
	"bytes"
	"crypto/sha256"
	"encoding/json"
	"regexp"
	"strings"
	"testing"

	"seadopt"
)

func jobList(t *testing.T, name string, seed int64) []byte {
	t.Helper()
	inst, _, err := workloads[name].setup(&env{name: name, seed: seed, workdir: t.TempDir()})
	if err != nil {
		t.Fatal(err)
	}
	defer inst.close()
	b, err := inst.(interface{ describe() ([]byte, error) }).describe()
	if err != nil {
		t.Fatal(err)
	}
	return b
}

func TestSameSeedSameJobList(t *testing.T) {
	for _, name := range workloadNames() {
		t.Run(name, func(t *testing.T) {
			a, b := jobList(t, name, 7), jobList(t, name, 7)
			if !bytes.Equal(a, b) {
				t.Fatalf("seed 7 gave two different job lists")
			}
			if bytes.Equal(a, jobList(t, name, 8)) {
				t.Fatalf("seeds 7 and 8 gave the same job list")
			}
		})
	}
}

// TestServedReferencesPrecedeTheirJobs pins the rule that keeps cache hits
// and warm starts deterministic: every repeat or variant names a job at
// least servedMinRefGap positions earlier, of a kind it may reuse.
func TestServedReferencesPrecedeTheirJobs(t *testing.T) {
	inst, _, err := newServed(&env{seed: 3, workdir: t.TempDir()})
	if err != nil {
		t.Fatal(err)
	}
	defer inst.close()
	want := map[int]int{}
	for _, k := range servedBlockKinds {
		want[k]++
	}
	for b := 0; b < 10; b++ {
		got := map[int]int{}
		for i := b * servedBlock; i < (b+1)*servedBlock; i++ {
			sp, _ := inst.spec(i)
			got[sp.kind]++
			if !isRef(sp.kind) {
				continue
			}
			if sp.ref < 0 || sp.ref > i-servedMinRefGap {
				t.Fatalf("job %d (kind %d) refers to job %d", i, sp.kind, sp.ref)
			}
			if family(inst.specs[sp.ref].kind) != family(sp.kind) {
				t.Fatalf("job %d refers across families", i)
			}
		}
		// The first block may turn references that have no target yet into
		// fresh jobs; every later block keeps the exact composition.
		if b > 0 {
			for k, n := range want {
				if got[k] != n {
					t.Fatalf("block %d has %d jobs of kind %d, want %d", b, got[k], k, n)
				}
			}
		}
	}
}

func mpegDesign(t *testing.T) (*seadopt.System, seadopt.OptimizeOptions, []byte) {
	t.Helper()
	sys, err := seadopt.NewARM7System(seadopt.MPEG2(), 4, 3)
	if err != nil {
		t.Fatal(err)
	}
	o := seadopt.OptimizeOptions{DeadlineSec: seadopt.MPEG2Deadline, StreamIterations: seadopt.MPEG2Frames, Seed: 1, Parallelism: 1}
	d, err := sys.Optimize(o)
	if err != nil {
		t.Fatal(err)
	}
	b, err := json.Marshal(d)
	if err != nil {
		t.Fatal(err)
	}
	return sys, o, b
}

func TestCorruptedResultFailsCheck(t *testing.T) {
	sys, o, good := mpegDesign(t)
	if err := checkDesign(sys, o, good); err != nil {
		t.Fatalf("intact design failed its check: %v", err)
	}
	// Each corruption edits one value in place, keeping the encoding's
	// field order, so only the changed value can fail the check.
	corruptions := map[string]*regexp.Regexp{
		"power":   regexp.MustCompile(`"power_w":[0-9.e-]+`),
		"mapping": regexp.MustCompile(`"mapping":\[[0-9]+`),
		"gamma":   regexp.MustCompile(`"gamma":[0-9.e-]+`),
		"busy":    regexp.MustCompile(`"busy_sec":[0-9.e-]+`),
	}
	for name, re := range corruptions {
		loc := re.FindIndex(good)
		if loc == nil {
			t.Fatalf("design has no %s field", name)
		}
		bad := append(append(append([]byte(nil), good[:loc[1]-1]...), '7'), good[loc[1]:]...)
		if bytes.Equal(bad, good) {
			bad[loc[1]-1] = '3'
		}
		if err := checkDesign(sys, o, bad); err == nil {
			t.Errorf("corrupted %s passed the check", name)
		}
	}
	// A corrupted frontier member is caught the same way.
	frontier := []byte("[" + string(good) + "," + strings.Replace(string(good), `"tm_sec":`, `"tm_sec":1`, 1) + "]")
	if err := checkFrontierBytes(sys, o, frontier); err == nil {
		t.Error("corrupted frontier member passed the check")
	}
}

// TestFailedChecksCountAsFailed drives the phase bookkeeping: a job whose
// check failed, and a later cycle whose bytes differ from cycle 0, both
// count in the failed total.
func TestFailedChecksCountAsFailed(t *testing.T) {
	h := func(s string) [32]byte { return sha256.Sum256([]byte(s)) }
	ph := &phase{cycle: 2, jobs: []outcome{
		{latency: 1, hash: h("a")},
		{latency: 1, hash: h("b")},
		{latency: 1, hash: h("a")},
		{latency: 1, hash: h("corrupted")},
		{latency: 1, err: checkDesign(nil, seadopt.OptimizeOptions{}, []byte("not json"))},
	}}
	ph.checkCycles()
	if got := ph.failed(); got != 2 {
		t.Fatalf("failed = %d, want 2 (one differing cycle, one failed check)", got)
	}
	if lat := ph.latencies(); lat[3] != maxTimedSeconds || lat[4] != maxTimedSeconds {
		t.Fatalf("failed jobs must miss every latency limit, got %v", lat)
	}
}

func TestQuantile(t *testing.T) {
	xs := []float64{5, 1, 4, 2, 3, 6, 7, 8, 9, 10}
	if q := quantile(xs, 0.5); q != 5 {
		t.Fatalf("p50 = %v, want 5", q)
	}
	if q := quantile(xs, 0.9); q != 9 {
		t.Fatalf("p90 = %v, want 9", q)
	}
	if xs[0] != 5 {
		t.Fatal("quantile reordered its input")
	}
}
