package service

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sync"
	"time"

	"seadopt"
)

// This file is the service's durability layer: an append-only JSONL journal
// under Config.StoreDir that records every accepted submission, every
// terminal outcome and every warm-start seed. Each append is fsynced before
// the triggering operation acknowledges, so a daemon that is SIGKILLed and
// restarted against the same directory loses no accepted job: finished
// results (and their exact bytes) are served from the journal, and jobs
// that were queued or running at the kill are re-enqueued under their
// original IDs and re-run — deterministically to the same bytes.
//
// The journal is a log, not a database: recovery replays it from the top,
// later records superseding earlier ones, and a torn final line (the
// append the crash interrupted) is ignored and truncated away on open.

// storeJournalName is the journal file inside Config.StoreDir.
const storeJournalName = "journal.jsonl"

// storeWarmPoint mirrors seadopt.WarmPoint with a stable wire encoding.
type storeWarmPoint struct {
	Combination int     `json:"c"`
	Makespan    float64 `json:"tm"`
	Gamma       float64 `json:"gamma"`
}

// storeRecord is one journal line. Kind selects which fields are meaningful:
//
//	job      ID, Key, Priority, Problem (canonical encoding), At
//	result   ID, Key, State (done/failed/canceled), Result, Summary, Total, Error, At
//	cancel   ID, At
//	frontier Key (warm registry key), Points
//
// Journals written by older daemons may also hold "hint" records (scalar
// warm-start hints: Key, "rank"); recovery skips them.
type storeRecord struct {
	Kind     string           `json:"kind"`
	ID       string           `json:"id,omitempty"`
	Key      string           `json:"key,omitempty"`
	Graph    string           `json:"graph,omitempty"`
	Priority int              `json:"priority,omitempty"`
	Problem  json.RawMessage  `json:"problem,omitempty"`
	At       time.Time        `json:"at,omitzero"`
	State    State            `json:"state,omitempty"`
	Result   json.RawMessage  `json:"result,omitempty"`
	Summary  string           `json:"summary,omitempty"`
	Total    int              `json:"total,omitempty"`
	Error    string           `json:"error,omitempty"`
	Points   []storeWarmPoint `json:"points,omitempty"`
}

// jobStore owns the journal file handle. Appends are serialized by its own
// mutex (never the Server's — fsync latency must not stall job scheduling
// beyond the appending operation itself).
type jobStore struct {
	mu sync.Mutex
	f  *os.File
}

// openJobStore opens (creating as needed) the journal under dir and replays
// its existing records. A torn tail is cut off — the journal is truncated
// to the end of the last whole record and the truncation fsynced — before
// appends resume, so the next record starts on a line of its own instead
// of being glued onto the fragment (which would hide it, and every record
// after it, from the next recovery).
func openJobStore(dir string) (*jobStore, []storeRecord, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, nil, fmt.Errorf("service: store dir: %w", err)
	}
	path := filepath.Join(dir, storeJournalName)
	recs, good, err := replayJournal(path)
	if err != nil {
		return nil, nil, err
	}
	f, err := os.OpenFile(path, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return nil, nil, fmt.Errorf("service: opening store journal: %w", err)
	}
	info, err := f.Stat()
	if err == nil && info.Size() > good {
		if err = f.Truncate(good); err == nil {
			err = f.Sync()
		}
	}
	if err != nil {
		f.Close()
		return nil, nil, fmt.Errorf("service: truncating torn store journal: %w", err)
	}
	return &jobStore{f: f}, recs, nil
}

// replayJournal reads every decodable record in order and returns them
// with the byte offset just past the last whole one. Decoding stops at the
// first malformed or unterminated line, which is the torn tail of an
// interrupted append — everything before it was fsynced whole.
func replayJournal(path string) ([]storeRecord, int64, error) {
	f, err := os.Open(path)
	if os.IsNotExist(err) {
		return nil, 0, nil
	}
	if err != nil {
		return nil, 0, fmt.Errorf("service: reading store journal: %w", err)
	}
	defer f.Close()
	var recs []storeRecord
	var good int64
	r := bufio.NewReaderSize(f, 64*1024)
	for {
		line, err := r.ReadBytes('\n')
		if err == io.EOF {
			return recs, good, nil // a fragment without its newline is torn
		}
		if err != nil {
			return nil, 0, fmt.Errorf("service: reading store journal: %w", err)
		}
		if len(line) > 1 {
			var rec storeRecord
			if err := json.Unmarshal(line, &rec); err != nil {
				return recs, good, nil // torn tail from an interrupted append
			}
			recs = append(recs, rec)
		}
		good += int64(len(line))
	}
}

// Append writes one record and fsyncs it. Callers must not acknowledge the
// recorded operation (202 a submission, serve a result as durable) before
// Append returns.
func (st *jobStore) Append(rec storeRecord) error {
	data, err := json.Marshal(rec)
	if err != nil {
		return err
	}
	st.mu.Lock()
	defer st.mu.Unlock()
	if _, err := st.f.Write(append(data, '\n')); err != nil {
		return fmt.Errorf("service: appending store journal: %w", err)
	}
	if err := st.f.Sync(); err != nil {
		return fmt.Errorf("service: syncing store journal: %w", err)
	}
	return nil
}

func (st *jobStore) Close() error {
	st.mu.Lock()
	defer st.mu.Unlock()
	return st.f.Close()
}

func toStorePoints(points []seadopt.WarmPoint) []storeWarmPoint {
	out := make([]storeWarmPoint, len(points))
	for i, p := range points {
		out[i] = storeWarmPoint{Combination: p.Combination, Makespan: p.Makespan, Gamma: p.Gamma}
	}
	return out
}

func fromStorePoints(points []storeWarmPoint) []seadopt.WarmPoint {
	out := make([]seadopt.WarmPoint, len(points))
	for i, p := range points {
		out[i] = seadopt.WarmPoint{Combination: p.Combination, Makespan: p.Makespan, Gamma: p.Gamma}
	}
	return out
}
