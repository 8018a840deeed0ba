package service

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"testing"
	"time"

	"seadopt/internal/ingest"
)

// newStoreServer boots a Server with the durable store rooted at dir.
func newStoreServer(t *testing.T, dir string, cfg Config) *Server {
	t.Helper()
	cfg.StoreDir = dir
	s, err := NewServer(cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 100*time.Millisecond)
		defer cancel()
		_ = s.Close(ctx)
	})
	return s
}

// TestStoreRecoversFinishedJobs: a daemon restarted against the same store
// directory still knows every finished job — same ID, same state, same
// result bytes — serves identical resubmissions from the recovered cache
// without re-running the engine, continues the job ID sequence instead of
// reissuing recovered IDs, and keeps its Pareto warm-start seeds.
func TestStoreRecoversFinishedJobs(t *testing.T) {
	dir := t.TempDir()

	s1 := newStoreServer(t, dir, Config{Workers: 1})
	st, err := s1.Submit(mpeg2Problem(t, 2010), 0)
	if err != nil {
		t.Fatal(err)
	}
	final := waitState(t, s1, st.ID, StateDone)
	pst, err := s1.Submit(paretoProblem(t, 2010), 0)
	if err != nil {
		t.Fatal(err)
	}
	waitState(t, s1, pst.ID, StateDone)
	ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
	defer cancel()
	if err := s1.Close(ctx); err != nil {
		t.Fatal(err)
	}

	s2 := newStoreServer(t, dir, Config{Workers: 1})
	got, err := s2.Job(st.ID)
	if err != nil {
		t.Fatalf("recovered server lost job %s: %v", st.ID, err)
	}
	if got.State != StateDone {
		t.Fatalf("recovered job state %s, want done", got.State)
	}
	if !bytes.Equal(got.Result, final.Result) {
		t.Fatalf("recovered result bytes differ:\n%s\nvs\n%s", got.Result, final.Result)
	}
	if got.Summary != final.Summary || got.Total != final.Total {
		t.Fatalf("recovered summary/total %q/%d, want %q/%d",
			got.Summary, got.Total, final.Summary, final.Total)
	}

	// An identical resubmission is a cache hit off the recovered journal.
	again, err := s2.Submit(mpeg2Problem(t, 2010), 0)
	if err != nil {
		t.Fatal(err)
	}
	if !again.CacheHit || again.State != StateDone {
		t.Fatalf("resubmission after recovery: state %s, cacheHit %v", again.State, again.CacheHit)
	}
	if !bytes.Equal(again.Result, final.Result) {
		t.Fatal("resubmission after recovery returned different bytes")
	}
	if again.ID == st.ID {
		t.Fatalf("resubmission reused recovered job ID %s", st.ID)
	}
	if execs := s2.Metrics().EngineExecutions; execs != 0 {
		t.Fatalf("recovered server ran the engine %d times for known results", execs)
	}

	// The Pareto frontier seed journaled by the first run survives too.
	if !hasFrontierSeed(t, s2, paretoProblem(t, 2010)) {
		t.Fatal("Pareto frontier seed did not survive the restart")
	}
}

// hasFrontierSeed reports whether s's warm registry holds a frontier seed
// for p's workload and deadline.
func hasFrontierSeed(t *testing.T, s *Server, p *ingest.Problem) bool {
	t.Helper()
	fp, err := p.Fingerprint()
	if err != nil {
		t.Fatal(err)
	}
	return len(s.warm.Frontier(warmParetoKey(fp, p.Options))) > 0
}

// TestStoreRecoversJournalWithHintRecords: journals written by older
// daemons interleave scalar warm-start "hint" records with the job, result
// and frontier records. Recovery must skip the hints and still restore
// every finished job's bytes and every Pareto frontier seed.
func TestStoreRecoversJournalWithHintRecords(t *testing.T) {
	dir := t.TempDir()
	s1 := newStoreServer(t, dir, Config{Workers: 1})
	var want []JobStatus
	for _, p := range []*ingest.Problem{mpeg2Problem(t, 2010), paretoProblem(t, 2010)} {
		st, err := s1.Submit(p, 0)
		if err != nil {
			t.Fatal(err)
		}
		want = append(want, waitState(t, s1, st.ID, StateDone))
	}
	ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
	defer cancel()
	if err := s1.Close(ctx); err != nil {
		t.Fatal(err)
	}

	// Rewrite the journal as an older daemon would have left it: a hint
	// record before, between and after the others.
	path := filepath.Join(dir, storeJournalName)
	old, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	lines := bytes.SplitAfter(bytes.TrimSuffix(old, []byte("\n")), []byte("\n"))
	kinds := map[string]bool{}
	var journal []byte
	for i, line := range lines {
		var rec storeRecord
		if err := json.Unmarshal(line, &rec); err != nil {
			t.Fatalf("journal line %d: %v", i, err)
		}
		kinds[rec.Kind] = true
		journal = fmt.Appendf(journal, `{"kind":"hint","key":"fp-sha256:old|2010|%d|0|0|scalar","rank":%d}`+"\n", i, i+3)
		journal = append(journal, bytes.TrimSuffix(line, []byte("\n"))...)
		journal = append(journal, '\n')
	}
	journal = append(journal, `{"kind":"hint","key":"fp-sha256:old|scalar","rank":1}`+"\n"...)
	for _, k := range []string{"job", "result", "frontier"} {
		if !kinds[k] {
			t.Fatalf("journal holds no %q record to interleave with", k)
		}
	}
	if err := os.WriteFile(path, journal, 0o644); err != nil {
		t.Fatal(err)
	}

	s2 := newStoreServer(t, dir, Config{Workers: 1})
	for _, w := range want {
		got, err := s2.Job(w.ID)
		if err != nil {
			t.Fatalf("recovery lost job %s: %v", w.ID, err)
		}
		if got.State != StateDone || !bytes.Equal(got.Result, w.Result) {
			t.Fatalf("recovered job %s: state %s, bytes equal %v", w.ID, got.State, bytes.Equal(got.Result, w.Result))
		}
	}
	if !hasFrontierSeed(t, s2, paretoProblem(t, 2010)) {
		t.Fatal("Pareto frontier seed lost in a journal with hint records")
	}
	if n := s2.warm.ll.Len(); n != 1 {
		t.Fatalf("warm registry holds %d entries after recovery, want only the frontier seed", n)
	}
	if execs := s2.Metrics().EngineExecutions; execs != 0 {
		t.Fatalf("recovery re-ran the engine %d times for finished jobs", execs)
	}
}

// TestStoreRecoversUnfinishedJobs simulates a SIGKILL between acceptance
// and completion: the journal holds an accepted job with no terminal
// record. The restarted server must re-enqueue it under its original ID and
// run it to the same bytes a never-crashed server produces.
func TestStoreRecoversUnfinishedJobs(t *testing.T) {
	dir := t.TempDir()
	p := mpeg2Problem(t, 2010)
	enc, err := p.CanonicalEncoding()
	if err != nil {
		t.Fatal(err)
	}
	key := ingest.EncodingKey(enc)

	// Craft the journal a killed daemon would leave behind: one accepted
	// job, no result — plus a torn final line from the append the kill
	// interrupted, which recovery must ignore.
	store, _, err := openJobStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	rec := storeRecord{
		Kind: "job", ID: "j-000007", Key: key, Graph: p.Graph.Name(),
		Problem: enc, At: time.Unix(1_700_000_000, 0),
	}
	if err := store.Append(rec); err != nil {
		t.Fatal(err)
	}
	if err := store.Close(); err != nil {
		t.Fatal(err)
	}
	f, err := os.OpenFile(filepath.Join(dir, storeJournalName), os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.WriteString(`{"kind":"result","id":"j-0000`); err != nil {
		t.Fatal(err)
	}
	f.Close()

	// Reference bytes from a server that never crashed.
	ref := newTestServer(t, Config{Workers: 1})
	refSt, err := ref.Submit(mpeg2Problem(t, 2010), 0)
	if err != nil {
		t.Fatal(err)
	}
	want := waitState(t, ref, refSt.ID, StateDone)

	s := newStoreServer(t, dir, Config{Workers: 1})
	got := waitState(t, s, "j-000007", StateDone)
	if !bytes.Equal(got.Result, want.Result) {
		t.Fatalf("re-run recovered job bytes differ:\n%s\nvs\n%s", got.Result, want.Result)
	}
	if got.Summary != want.Summary {
		t.Fatalf("re-run summary %q, want %q", got.Summary, want.Summary)
	}

	// The ID sequence resumes above the recovered job.
	next, err := s.Submit(mpeg2Problem(t, 1), 0)
	if err != nil {
		t.Fatal(err)
	}
	if next.ID != "j-000008" {
		t.Fatalf("post-recovery submission got ID %s, want j-000008", next.ID)
	}

	// A second crash-and-recover: records appended after the first
	// recovery must not have been glued onto the torn fragment, so both
	// jobs survive it.
	ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
	defer cancel()
	if err := s.Close(ctx); err != nil {
		t.Fatal(err)
	}
	s2 := newStoreServer(t, dir, Config{Workers: 1})
	again, err := s2.Job("j-000007")
	if err != nil {
		t.Fatalf("second recovery lost j-000007: %v", err)
	}
	if again.State != StateDone || !bytes.Equal(again.Result, want.Result) {
		t.Fatalf("second recovery: j-000007 %s, bytes equal %v", again.State, bytes.Equal(again.Result, want.Result))
	}
	if _, err := s2.Job("j-000008"); err != nil {
		t.Fatalf("second recovery lost j-000008: %v", err)
	}
}

// TestStoreCoalescesRecoveredDuplicates: two accepted-but-unfinished jobs
// over the same problem share one recovered flight — a single engine
// execution finishes both with identical bytes.
func TestStoreCoalescesRecoveredDuplicates(t *testing.T) {
	dir := t.TempDir()
	p := mpeg2Problem(t, 2010)
	enc, err := p.CanonicalEncoding()
	if err != nil {
		t.Fatal(err)
	}
	key := ingest.EncodingKey(enc)
	store, _, err := openJobStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	for _, id := range []string{"j-000001", "j-000002"} {
		rec := storeRecord{
			Kind: "job", ID: id, Key: key, Graph: p.Graph.Name(),
			Problem: enc, At: time.Unix(1_700_000_000, 0),
		}
		if err := store.Append(rec); err != nil {
			t.Fatal(err)
		}
	}
	if err := store.Close(); err != nil {
		t.Fatal(err)
	}

	s := newStoreServer(t, dir, Config{Workers: 2})
	a := waitState(t, s, "j-000001", StateDone)
	b := waitState(t, s, "j-000002", StateDone)
	if !bytes.Equal(a.Result, b.Result) {
		t.Fatal("recovered duplicate jobs finished with different bytes")
	}
	if execs := s.Metrics().EngineExecutions; execs != 1 {
		t.Fatalf("recovered duplicates ran the engine %d times, want 1", execs)
	}
}

// TestStoreRecoversCanceledJobs: a cancel record makes the job terminal on
// recovery — it must not re-run.
func TestStoreRecoversCanceledJobs(t *testing.T) {
	dir := t.TempDir()
	s1 := newStoreServer(t, dir, Config{Workers: 1})
	blocked := make(chan struct{})
	s1.hookExecute = func(*flight) { <-blocked }
	st, err := s1.Submit(mpeg2Problem(t, 2010), 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s1.Cancel(st.ID); err != nil {
		t.Fatal(err)
	}
	close(blocked)
	ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
	defer cancel()
	if err := s1.Close(ctx); err != nil {
		t.Fatal(err)
	}

	s2 := newStoreServer(t, dir, Config{Workers: 1})
	got, err := s2.Job(st.ID)
	if err != nil {
		t.Fatal(err)
	}
	if got.State != StateCanceled {
		t.Fatalf("recovered canceled job in state %s", got.State)
	}
	if execs := s2.Metrics().EngineExecutions; execs != 0 {
		t.Fatalf("canceled job re-ran %d times after recovery", execs)
	}
}
