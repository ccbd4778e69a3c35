package fleet

import (
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// webhookSpec is smallSpec plus a delivery URL.
func webhookSpec(url string) Spec {
	sp := smallSpec()
	sp.Webhook = url
	return sp
}

// runToCompletion submits a run and waits for its terminal view.
func runToCompletion(t *testing.T, m *Manager, id string) {
	t.Helper()
	if _, err := m.LoadMicrocode(tctx, id, SpinMicrocode, "start"); err != nil {
		t.Fatal(err)
	}
	v, err := m.SubmitRun(tctx, id, 100)
	if err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(5 * time.Second)
	for {
		got, err := m.GetRun(id, v.ID)
		if err != nil {
			t.Fatal(err)
		}
		if got.Status == RunDone || got.Status == RunFailed {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("run %s never finished", v.ID)
		}
		time.Sleep(time.Millisecond)
	}
}

// waitCounter polls an atomic until it reaches want.
func waitCounter(t *testing.T, c *atomic.Uint64, want uint64, what string) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for c.Load() < want {
		if time.Now().After(deadline) {
			t.Fatalf("%s = %d, want %d", what, c.Load(), want)
		}
		time.Sleep(time.Millisecond)
	}
	if got := c.Load(); got != want {
		t.Fatalf("%s = %d, want %d", what, got, want)
	}
}

// TestWebhookRetryThenDeliver: a receiver that fails twice then accepts
// sees exactly three attempts, and the fleet counts two retries and one
// delivery — the bounded-retry ladder working as documented.
func TestWebhookRetryThenDeliver(t *testing.T) {
	var calls atomic.Uint64
	var last atomic.Value
	rcv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if calls.Add(1) <= 2 {
			http.Error(w, "flaky", http.StatusInternalServerError)
			return
		}
		var v RunView
		if err := json.NewDecoder(r.Body).Decode(&v); err != nil {
			t.Errorf("webhook body: %v", err)
		}
		last.Store(v)
		if r.Header.Get("Dorado-Event") != "run" || r.Header.Get("Dorado-Session") == "" {
			t.Errorf("webhook headers = %v", r.Header)
		}
		w.WriteHeader(http.StatusNoContent)
	}))
	defer rcv.Close()

	m := New(Config{
		Workers:        1,
		WebhookAllow:   []string{rcv.URL},
		webhookBackoff: time.Millisecond,
	})
	defer drainNow(t, m)
	id, err := m.Create(webhookSpec(rcv.URL))
	if err != nil {
		t.Fatal(err)
	}
	runToCompletion(t, m, id)

	waitCounter(t, &m.counters.webhookDelivered, 1, "delivered")
	if got := m.counters.webhookRetried.Load(); got != 2 {
		t.Fatalf("retried = %d, want 2", got)
	}
	if got := m.counters.webhookDropped.Load(); got != 0 {
		t.Fatalf("dropped = %d, want 0", got)
	}
	v, _ := last.Load().(RunView)
	if v.Session != id || v.Status != RunDone || v.Result == nil {
		t.Fatalf("delivered view = %+v", v)
	}
}

// TestWebhookDeadLetter: a receiver that never accepts exhausts the four
// attempts and the event is dropped, not retried forever.
func TestWebhookDeadLetter(t *testing.T) {
	var calls atomic.Uint64
	rcv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		calls.Add(1)
		http.Error(w, "down", http.StatusServiceUnavailable)
	}))
	defer rcv.Close()

	m := New(Config{
		Workers:        1,
		WebhookAllow:   []string{"*"},
		webhookBackoff: time.Millisecond,
	})
	defer drainNow(t, m)
	id, err := m.Create(webhookSpec(rcv.URL))
	if err != nil {
		t.Fatal(err)
	}
	runToCompletion(t, m, id)

	waitCounter(t, &m.counters.webhookDropped, 1, "dropped")
	if got := calls.Load(); got != webhookMaxAttempts {
		t.Fatalf("attempts = %d, want %d", got, webhookMaxAttempts)
	}
	if got := m.counters.webhookDelivered.Load(); got != 0 {
		t.Fatalf("delivered = %d, want 0", got)
	}
}

// TestWebhookAllowlist: Create rejects webhooks outside the allowlist
// (and any webhook at all when the allowlist is empty) with a client
// error, before the session exists.
func TestWebhookAllowlist(t *testing.T) {
	m := New(Config{Workers: 1, WebhookAllow: []string{"https://hooks.example.com"}})
	defer drainNow(t, m)
	for _, url := range []string{
		"https://evil.example.net/exfil",
		"ftp://hooks.example.com/x",
		"http://hooks.example.com/x", // scheme mismatch: http != https
		"not a url at all ://",
	} {
		if _, err := m.Create(webhookSpec(url)); !errors.Is(err, errBadInput) {
			t.Errorf("Create(webhook=%q): %v", url, err)
		}
	}
	// Allowed origin, any path.
	if _, err := m.Create(webhookSpec("https://hooks.example.com/deep/path?x=1")); err != nil {
		t.Errorf("allowlisted webhook rejected: %v", err)
	}

	empty := New(Config{Workers: 1})
	defer drainNow(t, empty)
	if _, err := empty.Create(webhookSpec("https://hooks.example.com/x")); !errors.Is(err, errBadInput) {
		t.Errorf("empty allowlist accepted a webhook: %v", err)
	}
}

// TestWebhookBacklogBounded: a receiver that hangs holds at most
// maxRunsRetained of a session's views. Every completion past that is
// dead-lettered at once, so the goroutines a session costs stay bounded
// however many of its runs complete, and exactly the held views are
// delivered once the receiver answers. With maxRunsRetained runs,
// completing back to back, nothing is dropped.
func TestWebhookBacklogBounded(t *testing.T) {
	for _, runs := range []int{maxRunsRetained, 400} {
		t.Run(fmt.Sprint(runs), func(t *testing.T) {
			var calls atomic.Uint64
			release := make(chan struct{})
			var releaseOnce sync.Once
			unblock := func() { releaseOnce.Do(func() { close(release) }) }
			rcv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
				calls.Add(1)
				<-release
				w.WriteHeader(http.StatusNoContent)
			}))
			defer rcv.Close()
			defer unblock() // before Close, which waits for the handlers
			m := New(Config{Workers: 1, WebhookAllow: []string{rcv.URL}})
			id, err := m.Create(webhookSpec(rcv.URL))
			if err != nil {
				t.Fatal(err)
			}
			if _, err := m.LoadMicrocode(tctx, id, SpinMicrocode, "start"); err != nil {
				t.Fatal(err)
			}
			// Each held view costs its delivery goroutine plus the
			// client's and the receiver's connection goroutines.
			start := runtime.NumGoroutine()
			checkGoroutines := func() {
				t.Helper()
				n, limit := runtime.NumGoroutine(), start+5*maxRunsRetained
				if n > limit {
					t.Fatalf("%d goroutines with the receiver hung, want at most %d", n, limit)
				}
				t.Logf("%d goroutines with the receiver hung, %d at the start", n, start)
			}
			for n := 0; n < runs; {
				_, err := m.SubmitRun(tctx, id, 1000)
				if errors.Is(err, ErrOverloaded) {
					time.Sleep(50 * time.Microsecond)
					continue
				}
				if err != nil {
					t.Fatal(err)
				}
				n++
			}
			// One worker runs the session's queue in order: once the
			// last run is done, every completion has been handed over.
			last := waitRun(t, m, id, fmt.Sprintf("r%d", runs))
			checkGoroutines()
			waitCounter(t, &m.counters.webhookDropped, uint64(runs-maxRunsRetained), "dropped")
			waitCounter(t, &calls, maxRunsRetained, "requests to the hung receiver")
			checkGoroutines()
			// A dead-lettered view is still pollable.
			if got, err := m.GetRun(id, last.ID); err != nil || got.Status != RunDone {
				t.Fatalf("newest run = %+v, %v", got, err)
			}

			unblock()
			waitCounter(t, &m.counters.webhookDelivered, maxRunsRetained, "delivered")
			drainNow(t, m)
			s, _ := m.lookup(id)
			s.mu.Lock()
			held := s.hooks
			s.mu.Unlock()
			if held != 0 || calls.Load() != maxRunsRetained {
				t.Fatalf("after drain: %d views held, %d requests", held, calls.Load())
			}
			deadline := time.Now().Add(5 * time.Second)
			for {
				buf := make([]byte, 1<<20)
				stacks := string(buf[:runtime.Stack(buf, true)])
				if !strings.Contains(stacks, "(*Manager).sendWebhook") {
					break
				}
				if time.Now().After(deadline) {
					t.Fatalf("a delivery goroutine outlived Drain:\n%s", stacks)
				}
				time.Sleep(time.Millisecond)
			}
		})
	}
}
