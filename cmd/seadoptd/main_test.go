package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"io"
	"net"
	"net/http"
	"os"
	"regexp"
	"strconv"
	"sync"
	"testing"
	"time"

	"seadopt"
)

// TestDaemonEndToEnd boots seadoptd on an ephemeral port, fires concurrent
// identical MPEG-2 submissions at it, and asserts the cache/single-flight
// counters prove exactly one engine execution before a SIGTERM-equivalent
// drain shuts it down cleanly.
func TestDaemonEndToEnd(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	addrCh := make(chan string, 1)
	done := make(chan error, 1)
	go func() {
		done <- run(ctx, []string{"-addr", "127.0.0.1:0", "-workers", "2", "-drain-timeout", "30s"},
			func(addr string) { addrCh <- addr })
	}()
	var base string
	select {
	case addr := <-addrCh:
		base = "http://" + addr
	case err := <-done:
		t.Fatalf("daemon exited before ready: %v", err)
	case <-time.After(30 * time.Second):
		t.Fatal("daemon never became ready")
	}

	// Liveness first.
	resp, err := http.Get(base + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("healthz: %d", resp.StatusCode)
	}

	gj, err := seadopt.MPEG2().MarshalJSON()
	if err != nil {
		t.Fatal(err)
	}
	env, _ := json.Marshal(map[string]any{
		"format":   "json",
		"graph":    json.RawMessage(gj),
		"platform": map[string]int{"cores": 4, "levels": 3},
		"options": map[string]any{
			"deadline_sec":      seadopt.MPEG2Deadline,
			"stream_iterations": seadopt.MPEG2Frames,
			"seed":              2010,
		},
	})

	const clients = 6
	ids := make([]string, clients)
	var wg sync.WaitGroup
	for i := 0; i < clients; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			resp, err := http.Post(base+"/v1/jobs", "application/json", bytes.NewReader(env))
			if err != nil {
				t.Errorf("client %d: %v", i, err)
				return
			}
			defer resp.Body.Close()
			var st struct {
				ID string `json:"id"`
			}
			if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
				t.Errorf("client %d: %v", i, err)
				return
			}
			ids[i] = st.ID
		}(i)
	}
	wg.Wait()
	if t.Failed() {
		t.FailNow()
	}

	var result []byte
	deadline := time.Now().Add(2 * time.Minute)
	for _, id := range ids {
		for {
			resp, err := http.Get(base + "/v1/jobs/" + id)
			if err != nil {
				t.Fatal(err)
			}
			var st struct {
				State  string          `json:"state"`
				Error  string          `json:"error"`
				Result json.RawMessage `json:"result"`
			}
			err = json.NewDecoder(resp.Body).Decode(&st)
			resp.Body.Close()
			if err != nil {
				t.Fatal(err)
			}
			if st.State == "done" {
				if result == nil {
					result = st.Result
				} else if !bytes.Equal(result, st.Result) {
					t.Fatalf("job %s result differs from siblings", id)
				}
				break
			}
			if st.State == "failed" || st.State == "canceled" {
				t.Fatalf("job %s ended %s: %s", id, st.State, st.Error)
			}
			if time.Now().After(deadline) {
				t.Fatalf("job %s stuck in %s", id, st.State)
			}
			time.Sleep(5 * time.Millisecond)
		}
	}

	mresp, err := http.Get(base + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(mresp.Body)
	mresp.Body.Close()
	m := regexp.MustCompile(`(?m)^seadoptd_engine_executions_total ([0-9]+)$`).FindSubmatch(body)
	if m == nil {
		t.Fatalf("no engine execution counter in metrics:\n%s", body)
	}
	if n, _ := strconv.Atoi(string(m[1])); n != 1 {
		t.Fatalf("engine executed %d times for %d identical submissions, want 1", n, clients)
	}

	// Drain: cancel the run context (what SIGTERM does) and wait for exit.
	cancel()
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("daemon exit: %v", err)
		}
	case <-time.After(time.Minute):
		t.Fatal("daemon failed to drain and exit")
	}
}

// TestPprofGatedBehindFlag: the profiling endpoints must exist when -pprof
// is set and 404 when it is not — profiling is opt-in, never ambient.
func TestPprofGatedBehindFlag(t *testing.T) {
	boot := func(t *testing.T, args []string) (base string, shutdown func()) {
		t.Helper()
		ctx, cancel := context.WithCancel(context.Background())
		addrCh := make(chan string, 1)
		done := make(chan error, 1)
		go func() {
			done <- run(ctx, append([]string{"-addr", "127.0.0.1:0", "-drain-timeout", "10s"}, args...),
				func(addr string) { addrCh <- addr })
		}()
		select {
		case addr := <-addrCh:
			base = "http://" + addr
		case err := <-done:
			t.Fatalf("daemon exited before ready: %v", err)
		case <-time.After(30 * time.Second):
			t.Fatal("daemon never became ready")
		}
		return base, func() {
			cancel()
			select {
			case <-done:
			case <-time.After(time.Minute):
				t.Fatal("daemon failed to drain and exit")
			}
		}
	}

	status := func(t *testing.T, base, path string) int {
		t.Helper()
		resp, err := http.Get(base + path)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		return resp.StatusCode
	}

	base, shutdown := boot(t, []string{"-pprof"})
	if got := status(t, base, "/debug/pprof/cmdline"); got != http.StatusOK {
		t.Errorf("-pprof on: /debug/pprof/cmdline = %d, want 200", got)
	}
	if got := status(t, base, "/healthz"); got != http.StatusOK {
		t.Errorf("-pprof on: /healthz = %d, want 200 (service routes must keep working)", got)
	}
	shutdown()

	base, shutdown = boot(t, nil)
	if got := status(t, base, "/debug/pprof/cmdline"); got != http.StatusNotFound {
		t.Errorf("-pprof off: /debug/pprof/cmdline = %d, want 404", got)
	}
	shutdown()
}

// TestUnfinishedHeadersConnectionClosed: a client that opens a connection
// and never finishes its request headers (a slowloris) is disconnected
// once readHeaderTimeout passes, instead of holding the connection open.
func TestUnfinishedHeadersConnectionClosed(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	addrCh := make(chan string, 1)
	done := make(chan error, 1)
	go func() {
		done <- run(ctx, []string{"-addr", "127.0.0.1:0", "-drain-timeout", "10s"},
			func(addr string) { addrCh <- addr })
	}()
	var addr string
	select {
	case addr = <-addrCh:
	case err := <-done:
		t.Fatalf("daemon exited before ready: %v", err)
	case <-time.After(30 * time.Second):
		t.Fatal("daemon never became ready")
	}
	defer func() {
		cancel()
		select {
		case <-done:
		case <-time.After(time.Minute):
			t.Fatal("daemon failed to drain and exit")
		}
	}()

	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	start := time.Now()
	if _, err := io.WriteString(conn, "POST /v1/jobs HTTP/1.1\r\nHost: seadoptd\r\n"); err != nil {
		t.Fatal(err)
	}
	if err := conn.SetReadDeadline(start.Add(readHeaderTimeout + 10*time.Second)); err != nil {
		t.Fatal(err)
	}
	// ReadAll returns once the server closes the connection (whether or
	// not it writes a response first); only our own deadline means open.
	if _, err := io.ReadAll(conn); errors.Is(err, os.ErrDeadlineExceeded) {
		t.Fatalf("connection with unfinished headers still open after %v", time.Since(start))
	}
	if el := time.Since(start); el < readHeaderTimeout/2 {
		t.Fatalf("connection closed after %v, before the %v header timeout", el, readHeaderTimeout)
	}
}
