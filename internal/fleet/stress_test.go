package fleet

import (
	"context"
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"sync"
	"testing"
	"time"

	"dorado"
)

// TestStressConcurrentSessions drives 32 sessions through the full
// operation surface — load, run, snapshot, restore, read-state — from 32
// concurrent drivers while a sweeper goroutine aggressively parks idle
// sessions and scrapers read the listing and metrics, all under whatever
// scheduler interleaving the race detector provokes. Each driver checks
// exact cycle accounting: per-session operations are serialized and the
// machine is deterministic, so after every iteration the cycle counter
// must match the driver's model even when the session was parked and
// revived in between.
func TestStressConcurrentSessions(t *testing.T) {
	const (
		sessions   = 32
		iterations = 6
	)
	m := New(Config{
		Workers:     4,
		MaxSessions: sessions,
		QueueDepth:  4,
		// Eviction pressure: everything idle for 1ms is fair game for the
		// sweeper below (the built-in janitor period is too coarse here).
		IdleAfter:  time.Millisecond,
		sweepEvery: time.Hour,
	})
	defer drainNow(t, m)

	stop := make(chan struct{})
	var aux sync.WaitGroup
	aux.Add(2)
	go func() { // sweeper: constant park pressure
		defer aux.Done()
		for {
			select {
			case <-stop:
				return
			default:
				m.Sweep()
				time.Sleep(200 * time.Microsecond)
			}
		}
	}()
	go func() { // scraper: listings and metrics race the drivers
		defer aux.Done()
		for {
			select {
			case <-stop:
				return
			default:
				m.Sessions()
				m.MetricsSnapshot()
				time.Sleep(300 * time.Microsecond)
			}
		}
	}()

	var wg sync.WaitGroup
	for i := 0; i < sessions; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			id, err := m.Create(smallSpec())
			if err != nil {
				t.Errorf("create: %v", err)
				return
			}
			if _, err := m.LoadMicrocode(tctx, id, SpinMicrocode, "start"); err != nil {
				t.Errorf("%s: load: %v", id, err)
				return
			}
			var model uint64 // expected machine cycle counter
			for it := 0; it < iterations; it++ {
				r, err := m.Run(tctx, id, 2000)
				if err != nil {
					t.Errorf("%s: run: %v", id, err)
					return
				}
				model += 2000
				if r.Cycle != model {
					t.Errorf("%s: cycle %d, want %d", id, r.Cycle, model)
					return
				}
				snap, err := m.Snapshot(tctx, id)
				if err != nil {
					t.Errorf("%s: snapshot: %v", id, err)
					return
				}
				if _, err := m.Run(tctx, id, 1000); err != nil {
					t.Errorf("%s: run past snapshot: %v", id, err)
					return
				}
				if err := m.Restore(tctx, id, snap); err != nil {
					t.Errorf("%s: restore: %v", id, err)
					return
				}
				st, err := m.ReadState(tctx, id)
				if err != nil {
					t.Errorf("%s: state: %v", id, err)
					return
				}
				if st.Cycle != model {
					t.Errorf("%s: restored cycle %d, want %d", id, st.Cycle, model)
					return
				}
			}
		}()
	}
	wg.Wait()
	close(stop)
	aux.Wait()

	// Deterministic park/revive epilogue (the background sweeper only
	// catches sessions mid-churn when the scheduler is slow enough): once
	// every driver is done, everything is idle, so a sweep past IdleAfter
	// must park every session — and one more run on each must revive it
	// with its cycle count intact.
	time.Sleep(2 * m.cfg.IdleAfter)
	m.Sweep()
	if m.counters.evicted.Load() == 0 {
		t.Error("stress run never parked a session")
	}
	final := uint64(iterations * 2000)
	for i := 1; i <= sessions; i++ {
		id := fmt.Sprintf("s%d", i)
		r, err := m.Run(tctx, id, 100)
		if err != nil {
			t.Fatalf("%s: post-sweep run: %v", id, err)
		}
		if r.Cycle != final+100 {
			t.Errorf("%s: revived cycle %d, want %d", id, r.Cycle, final+100)
		}
	}
	if got := m.counters.created.Load(); got != sessions {
		t.Errorf("created = %d", got)
	}
}

// TestStressTranslatedSessions is the run/snapshot/restore/park/revive
// churn with superblock translation enabled on every session: the
// translator's caches (hotness counters, fused blocks) are per-machine
// derived state that Restore and revival must invalidate, and the race
// detector watches the worker pool hand translated machines between
// goroutines. Cycle accounting stays exact — translation must not change
// what a run operation simulates, only how fast.
func TestStressTranslatedSessions(t *testing.T) {
	const (
		sessions   = 8
		iterations = 6
	)
	spec := smallSpec()
	spec.Machine.Translation = dorado.Translation{Enable: true}
	m := New(Config{
		Workers:     4,
		MaxSessions: sessions,
		QueueDepth:  4,
		IdleAfter:   time.Millisecond,
		sweepEvery:  time.Hour,
	})
	defer drainNow(t, m)

	stop := make(chan struct{})
	var sweep sync.WaitGroup
	sweep.Add(1)
	go func() { // constant park pressure, so revival rebuilds translators mid-churn
		defer sweep.Done()
		for {
			select {
			case <-stop:
				return
			default:
				m.Sweep()
				time.Sleep(200 * time.Microsecond)
			}
		}
	}()

	var wg sync.WaitGroup
	for i := 0; i < sessions; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			id, err := m.Create(spec)
			if err != nil {
				t.Errorf("create: %v", err)
				return
			}
			if _, err := m.LoadMicrocode(tctx, id, SpinMicrocode, "start"); err != nil {
				t.Errorf("%s: load: %v", id, err)
				return
			}
			var model uint64
			for it := 0; it < iterations; it++ {
				// Long enough for the spin loop's block, built at its
				// first visit, to run many times over.
				r, err := m.Run(tctx, id, 3000)
				if err != nil {
					t.Errorf("%s: run: %v", id, err)
					return
				}
				model += 3000
				if r.Cycle != model {
					t.Errorf("%s: cycle %d, want %d", id, r.Cycle, model)
					return
				}
				snap, err := m.Snapshot(tctx, id)
				if err != nil {
					t.Errorf("%s: snapshot: %v", id, err)
					return
				}
				if _, err := m.Run(tctx, id, 1000); err != nil {
					t.Errorf("%s: run past snapshot: %v", id, err)
					return
				}
				if err := m.Restore(tctx, id, snap); err != nil {
					t.Errorf("%s: restore: %v", id, err)
					return
				}
				st, err := m.ReadState(tctx, id)
				if err != nil {
					t.Errorf("%s: state: %v", id, err)
					return
				}
				if st.Cycle != model {
					t.Errorf("%s: restored cycle %d, want %d", id, st.Cycle, model)
					return
				}
			}
		}()
	}
	wg.Wait()
	close(stop)
	sweep.Wait()
}

// TestStressOverloadStorm hammers one session from many submitters with a
// tiny queue: every submission must either succeed or fail cleanly with
// ErrOverloaded, and the session must stay consistent throughout.
func TestStressOverloadStorm(t *testing.T) {
	m := New(Config{Workers: 2, QueueDepth: 2})
	defer drainNow(t, m)

	id, err := m.Create(smallSpec())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := m.LoadMicrocode(tctx, id, SpinMicrocode, "start"); err != nil {
		t.Fatal(err)
	}

	var (
		wg       sync.WaitGroup
		mu       sync.Mutex
		ok, shed int
	)
	for i := 0; i < 16; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for n := 0; n < 20; n++ {
				_, err := m.Run(tctx, id, 100)
				mu.Lock()
				switch {
				case err == nil:
					ok++
				case errors.Is(err, ErrOverloaded):
					shed++
				default:
					t.Errorf("unexpected error: %v", err)
				}
				mu.Unlock()
			}
		}()
	}
	wg.Wait()
	if ok == 0 {
		t.Error("no operation ever succeeded")
	}
	st, err := m.ReadState(tctx, id)
	if err != nil {
		t.Fatal(err)
	}
	if st.Cycle != uint64(ok)*100 {
		t.Errorf("cycle %d, want %d (%d ok, %d shed)", st.Cycle, ok*100, ok, shed)
	}
	if shed > 0 && m.counters.rejectedLoad.Load() == 0 {
		t.Error("shed ops not counted")
	}
}

// TestDrainUnderLoad starts a storm of work across many sessions and
// drains mid-flight: every accepted operation completes, late arrivals are
// refused, and Drain returns once the pool is quiet.
func TestDrainUnderLoad(t *testing.T) {
	m := New(Config{Workers: 4, MaxSessions: 8, QueueDepth: 8})

	ids := make([]string, 8)
	for i := range ids {
		id, err := m.Create(smallSpec())
		if err != nil {
			t.Fatal(err)
		}
		if _, err := m.LoadMicrocode(tctx, id, SpinMicrocode, "start"); err != nil {
			t.Fatal(err)
		}
		ids[i] = id
	}

	var wg sync.WaitGroup
	var accepted, refused atomic64
	for _, id := range ids {
		wg.Add(1)
		go func(id string) {
			defer wg.Done()
			for n := 0; n < 50; n++ {
				_, err := m.Run(tctx, id, 500)
				switch {
				case err == nil:
					accepted.add(1)
				case errors.Is(err, ErrDraining):
					refused.add(1)
					return
				case errors.Is(err, ErrOverloaded):
					// Back off and keep going until drain cuts us off.
				default:
					t.Errorf("%s: %v", id, err)
					return
				}
			}
		}(id)
	}

	time.Sleep(2 * time.Millisecond) // let some work through first
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := m.Drain(ctx); err != nil {
		t.Fatalf("drain: %v", err)
	}
	wg.Wait()
	if accepted.load() == 0 {
		t.Error("drain beat every driver; no operation ran")
	}
}

// TestStressTraceExportDuringRun races the observability surface against
// the operation surface on metrics sessions: while drivers run cycles and
// snapshot/restore, other goroutines continuously export Chrome traces,
// read obs summaries, stream SSE events over HTTP, and scrape Prometheus
// metrics. Everything must serialize cleanly (the race detector is the
// judge), and a final drain must terminate the still-open event streams
// promptly.
func TestStressTraceExportDuringRun(t *testing.T) {
	const nSessions = 4
	m := New(Config{Workers: 4, MaxSessions: nSessions, QueueDepth: 8})
	srv := httptest.NewServer(NewServer(m))
	defer srv.Close()

	ids := make([]string, nSessions)
	for i := range ids {
		id, err := m.Create(Spec{
			Metrics: true,
			Machine: smallSpec().Machine,
		})
		if err != nil {
			t.Fatal(err)
		}
		if _, err := m.LoadMicrocode(tctx, id, SpinMicrocode, "start"); err != nil {
			t.Fatal(err)
		}
		ids[i] = id
	}

	stop := make(chan struct{})
	var wg sync.WaitGroup
	for _, id := range ids {
		wg.Add(3)
		go func(id string) { // driver: run + snapshot/restore churn
			defer wg.Done()
			for it := 0; it < 8; it++ {
				if _, err := m.Run(tctx, id, 2000); err != nil {
					if !errors.Is(err, ErrDraining) {
						t.Errorf("%s: run: %v", id, err)
					}
					return
				}
				snap, err := m.Snapshot(tctx, id)
				if err != nil {
					if !errors.Is(err, ErrDraining) {
						t.Errorf("%s: snapshot: %v", id, err)
					}
					return
				}
				if err := m.Restore(tctx, id, snap); err != nil {
					if !errors.Is(err, ErrDraining) {
						t.Errorf("%s: restore: %v", id, err)
					}
					return
				}
			}
		}(id)
		go func(id string) { // exporter: traces and summaries mid-run
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				data, err := m.TraceJSON(tctx, id)
				if err == nil && len(data) == 0 {
					t.Errorf("%s: empty trace", id)
					return
				}
				if err == nil {
					_, err = m.ObsSummary(tctx, id)
				}
				if err != nil {
					if !errors.Is(err, ErrDraining) {
						t.Errorf("%s: export: %v", id, err)
					}
					return
				}
			}
		}(id)
		go func(id string) { // watcher: SSE stream until drain says bye
			defer wg.Done()
			resp, err := http.Get(srv.URL + "/v1/sessions/" + id + "/events?interval_ms=50")
			if err != nil {
				t.Errorf("%s: events: %v", id, err)
				return
			}
			defer resp.Body.Close()
			// Read until the stream ends; the drain below must close it.
			buf := make([]byte, 4096)
			for {
				if _, err := resp.Body.Read(buf); err != nil {
					return
				}
			}
		}(id)
	}
	wg.Add(1)
	go func() { // scraper: Prometheus export races everything above
		defer wg.Done()
		for {
			select {
			case <-stop:
				return
			default:
				m.MetricsSnapshot()
				time.Sleep(200 * time.Microsecond)
			}
		}
	}()

	// Let the churn overlap, then drain with the SSE streams still open:
	// the drain signal must end them, and every accepted operation must
	// complete.
	time.Sleep(20 * time.Millisecond)
	close(stop)
	drainNow(t, m)
	wg.Wait()
}

// atomic64 is a tiny counter wrapper to keep the test bodies readable.
type atomic64 struct {
	mu sync.Mutex
	v  uint64
}

func (a *atomic64) add(n uint64) { a.mu.Lock(); a.v += n; a.mu.Unlock() }
func (a *atomic64) load() uint64 { a.mu.Lock(); defer a.mu.Unlock(); return a.v }
