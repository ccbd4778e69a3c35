package fleet

import (
	"bufio"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"dorado/internal/store"
)

// waitRun polls a run until it reaches a terminal status.
func waitRun(t *testing.T, m *Manager, id, rid string) RunView {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for {
		v, err := m.GetRun(id, rid)
		if err != nil {
			t.Fatalf("get run %s/%s: %v", id, rid, err)
		}
		if v.Status == RunDone || v.Status == RunFailed {
			return v
		}
		if time.Now().After(deadline) {
			t.Fatalf("run %s/%s stuck in %q", id, rid, v.Status)
		}
		time.Sleep(time.Millisecond)
	}
}

func TestSubmitRunLifecycle(t *testing.T) {
	m := New(Config{Workers: 1})
	defer drainNow(t, m)
	id, err := m.Create(smallSpec())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := m.LoadMicrocode(tctx, id, SpinMicrocode, "start"); err != nil {
		t.Fatal(err)
	}

	v, err := m.SubmitRun(tctx, id, 1000)
	if err != nil {
		t.Fatal(err)
	}
	if v.ID != "r1" || v.Session != id || v.Cycles != 1000 || v.Submitted.IsZero() {
		t.Fatalf("submitted view = %+v", v)
	}
	done := waitRun(t, m, id, v.ID)
	if done.Status != RunDone || done.Result == nil || done.Finished == nil {
		t.Fatalf("terminal view = %+v", done)
	}
	if done.Result.Ran != 1000 || done.Result.Cycle != 1000 || done.Result.Halted {
		t.Fatalf("result = %+v", done.Result)
	}

	// The run stays pollable, and the listing shows it.
	runs, err := m.Runs(id)
	if err != nil {
		t.Fatal(err)
	}
	if len(runs) != 1 || runs[0].ID != "r1" || runs[0].Status != RunDone {
		t.Fatalf("runs = %+v", runs)
	}
	if _, err := m.GetRun(id, "r99"); !errors.Is(err, ErrNotFound) {
		t.Fatalf("unknown run: %v", err)
	}
	if _, err := m.GetRun("nope", "r1"); !errors.Is(err, ErrNotFound) {
		t.Fatalf("unknown session: %v", err)
	}
}

// TestRunRetention: finished runs beyond the per-session bound are
// evicted oldest-first; the newest stays pollable.
func TestRunRetention(t *testing.T) {
	m := New(Config{Workers: 1})
	defer drainNow(t, m)
	id, err := m.Create(smallSpec())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := m.LoadMicrocode(tctx, id, SpinMicrocode, "start"); err != nil {
		t.Fatal(err)
	}
	total := maxRunsRetained + 8
	var last RunView
	for i := 0; i < total; i++ {
		if last, err = m.SubmitRun(tctx, id, 10); err != nil {
			t.Fatal(err)
		}
		waitRun(t, m, id, last.ID)
	}
	runs, err := m.Runs(id)
	if err != nil {
		t.Fatal(err)
	}
	if len(runs) != maxRunsRetained {
		t.Fatalf("retained %d runs, want %d", len(runs), maxRunsRetained)
	}
	if runs[len(runs)-1].ID != last.ID {
		t.Fatalf("newest retained = %s, want %s", runs[len(runs)-1].ID, last.ID)
	}
	if _, err := m.GetRun(id, "r1"); !errors.Is(err, ErrNotFound) {
		t.Fatalf("oldest run should be evicted: %v", err)
	}
}

// TestServerAsyncRunLifecycle is the HTTP lifecycle: submit → 202 with a
// run id → the completion arrives on the SSE stream as a "run" event →
// the result is pollable at GET .../runs/{rid}.
func TestServerAsyncRunLifecycle(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 2})
	id := createSession(t, ts.URL, "")
	loadAndRun(t, ts.URL, id, 2000)

	// Subscribe before submitting so the completion event cannot be missed.
	resp, err := http.Get(ts.URL + "/v1/sessions/" + id + "/events?interval_ms=10000")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	br := bufio.NewReader(resp.Body)
	if ev, ok := readSSE(t, br); !ok || ev.name != "stats" {
		t.Fatalf("first event = %+v, ok %v", ev, ok)
	}

	var sub RunView
	if code := call(t, "POST", ts.URL+"/v1/sessions/"+id+"/runs",
		map[string]uint64{"cycles": 3000}, &sub); code != http.StatusAccepted {
		t.Fatalf("submit: status %d", code)
	}
	if sub.ID == "" || sub.Session != id {
		t.Fatalf("submitted = %+v", sub)
	}

	// The run-complete notification rides the stream.
	var runEv RunView
	for {
		ev, ok := readSSE(t, br)
		if !ok {
			t.Fatal("stream ended before the run event")
		}
		if ev.name != "run" {
			continue
		}
		if err := json.Unmarshal([]byte(ev.data), &runEv); err != nil {
			t.Fatalf("run event %q: %v", ev.data, err)
		}
		break
	}
	if runEv.ID != sub.ID || runEv.Status != RunDone || runEv.Result == nil || runEv.Result.Cycle != 5000 {
		t.Fatalf("run event = %+v", runEv)
	}

	// Poll the result; it matches the event.
	var got RunView
	if code := call(t, "GET", ts.URL+"/v1/sessions/"+id+"/runs/"+sub.ID, nil, &got); code != http.StatusOK {
		t.Fatalf("get run: status %d", code)
	}
	if got.Status != RunDone || got.Result == nil || got.Result.Ran != 3000 {
		t.Fatalf("polled run = %+v", got)
	}
	var list struct {
		Runs []RunView `json:"runs"`
	}
	if code := call(t, "GET", ts.URL+"/v1/sessions/"+id+"/runs", nil, &list); code != http.StatusOK {
		t.Fatalf("list runs: status %d", code)
	}
	// loadAndRun's run went through the same resource, so both are listed.
	if len(list.Runs) != 2 {
		t.Fatalf("runs listed = %+v", list.Runs)
	}
}

// TestServerErrorEnvelope: every error path answers the one typed
// envelope with a stable code and, on session routes, the session state.
func TestServerErrorEnvelope(t *testing.T) {
	m, ts := newTestServer(t, Config{Workers: 1, MaxSessions: 2})

	var env ErrorEnvelope
	if code := call(t, "GET", ts.URL+"/v1/sessions/nope", nil, &env); code != http.StatusNotFound {
		t.Fatalf("unknown session: status %d", code)
	}
	if env.Code != "not_found" || env.SessionState != "unknown" || env.Error == "" {
		t.Fatalf("envelope = %+v", env)
	}

	id := createSession(t, ts.URL, "")
	env = ErrorEnvelope{}
	if code := runHTTP(t, ts.URL, id, 0, &env); code != http.StatusBadRequest {
		t.Fatalf("zero cycles: status %d", code)
	}
	if env.Code != "bad_request" || env.SessionState != "live" {
		t.Fatalf("envelope = %+v", env)
	}

	// Park while an operation is in flight → busy, state live.
	running, release := blockSession(t, m, id)
	<-running
	env = ErrorEnvelope{}
	if code := call(t, "POST", ts.URL+"/v1/sessions/"+id+"/park", nil, &env); code != http.StatusConflict {
		t.Fatalf("busy park: status %d", code)
	}
	if env.Code != "busy" || env.SessionState != "live" {
		t.Fatalf("envelope = %+v", env)
	}
	release()

	// Storeless fork → no_store (no session named, so no session_state).
	env = ErrorEnvelope{}
	if code := call(t, "POST", ts.URL+"/v1/sessions",
		map[string]string{"from": "abc"}, &env); code != http.StatusConflict {
		t.Fatalf("storeless fork: status %d", code)
	}
	if env.Code != "no_store" || env.SessionState != "" {
		t.Fatalf("envelope = %+v", env)
	}

	// Session limit → too_many_sessions.
	createSession(t, ts.URL, "")
	env = ErrorEnvelope{}
	if code := call(t, "POST", ts.URL+"/v1/sessions", map[string]string{}, &env); code != http.StatusInsufficientStorage {
		t.Fatalf("session limit: status %d", code)
	}
	if env.Code != "too_many_sessions" {
		t.Fatalf("envelope = %+v", env)
	}

	// Trace without metrics → no_metrics.
	env = ErrorEnvelope{}
	if code := call(t, "GET", ts.URL+"/v1/sessions/"+id+"/trace", nil, &env); code != http.StatusConflict {
		t.Fatalf("no-metrics trace: status %d", code)
	}
	if env.Code != "no_metrics" || env.SessionState != "live" {
		t.Fatalf("envelope = %+v", env)
	}

	// Draining → draining.
	if code := call(t, "POST", ts.URL+"/v1/drain", nil, nil); code != http.StatusOK {
		t.Fatal("drain failed")
	}
	env = ErrorEnvelope{}
	if code := call(t, "GET", ts.URL+"/v1/sessions/"+id, nil, &env); code != http.StatusServiceUnavailable {
		t.Fatalf("draining read: status %d", code)
	}
	if env.Code != "draining" {
		t.Fatalf("envelope = %+v", env)
	}
}

// TestServerRestartDurability is the restart story over HTTP: park via
// the API, tear the whole server down (drain included), stand a new one
// up over the same store directory, and check the fleet came back —
// parked, hash-matching, lazily revivable.
func TestServerRestartDurability(t *testing.T) {
	dir := t.TempDir()
	m, ts := newTestServer(t, Config{Workers: 1, Store: openStore(t, dir)})
	id := createSession(t, ts.URL, "mesa")
	if code := call(t, "POST", ts.URL+"/v1/sessions/"+id+"/boot",
		map[string]string{"source": "return 6*7;"}, nil); code != http.StatusOK {
		t.Fatalf("boot: status %d", code)
	}
	var run RunResult
	if code := runHTTP(t, ts.URL, id, 1_000_000, &run); code != http.StatusAccepted || !run.Halted {
		t.Fatalf("run: status %d, %+v", code, run)
	}
	res := parkNow(t, m, id)
	if res.Snapshot == "" {
		t.Fatalf("park = %+v", res)
	}
	ts.Close()
	drainNow(t, m)

	// Second process over the same directory.
	_, ts2 := newTestServer(t, Config{Workers: 1, Store: openStore(t, dir)})
	var list struct {
		Sessions []Info `json:"sessions"`
	}
	if code := call(t, "GET", ts2.URL+"/v1/sessions", nil, &list); code != http.StatusOK {
		t.Fatalf("list: status %d", code)
	}
	if len(list.Sessions) != 1 {
		t.Fatalf("sessions = %+v", list.Sessions)
	}
	in := list.Sessions[0]
	if in.ID != id || !in.Parked || in.Snapshot != res.Snapshot || in.Language != "Mesa" {
		t.Fatalf("adopted = %+v", in)
	}

	// The stored blob is readable by hash without touching the session.
	blob := getBytes(t, ts2.URL+"/v1/snapshots/"+res.Snapshot)
	if got := store.Hash(blob); got != res.Snapshot {
		t.Fatalf("blob hash = %s, want %s", got, res.Snapshot)
	}

	// First touch revives: the program state (42 on the stack) survived
	// the restart.
	var st State
	if code := call(t, "GET", ts2.URL+"/v1/sessions/"+id, nil, &st); code != http.StatusOK {
		t.Fatalf("state: status %d", code)
	}
	if !st.Parked || st.Cycle != run.Cycle || len(st.Stack) != 1 || st.Stack[0] != 42 {
		t.Fatalf("revived state = %+v", st)
	}

	// Fork the stored snapshot into a second session over the API.
	var forked struct {
		ID string `json:"id"`
	}
	if code := call(t, "POST", ts2.URL+"/v1/sessions",
		map[string]string{"from": res.Snapshot}, &forked); code != http.StatusCreated {
		t.Fatalf("fork: status %d", code)
	}
	var fst State
	if code := call(t, "GET", ts2.URL+"/v1/sessions/"+forked.ID, nil, &fst); code != http.StatusOK {
		t.Fatalf("fork state: status %d", code)
	}
	if fst.Cycle != run.Cycle || len(fst.Stack) != 1 || fst.Stack[0] != 42 {
		t.Fatalf("fork state = %+v", fst)
	}
}

// TestStressAsyncRunsWithDurableChurn mixes async runs, explicit parks,
// janitor sweeps, and store persistence from many goroutines under the
// race detector, then restarts over the store and verifies every
// session's exact cycle count survived.
func TestStressAsyncRunsWithDurableChurn(t *testing.T) {
	const (
		sessions   = 8
		iterations = 5
		perRun     = 100
	)
	dir := t.TempDir()
	m := New(Config{
		Workers:     4,
		MaxSessions: sessions,
		QueueDepth:  8,
		IdleAfter:   time.Millisecond,
		sweepEvery:  time.Hour,
		Store:       openStore(t, dir),
	})

	stop := make(chan struct{})
	var aux sync.WaitGroup
	aux.Add(1)
	go func() { // sweeper: constant durable-park pressure
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

	var wg sync.WaitGroup
	ids := make([]string, sessions)
	for i := 0; i < sessions; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			id, err := m.Create(smallSpec())
			if err != nil {
				t.Errorf("create: %v", err)
				return
			}
			ids[i] = id
			if _, err := m.LoadMicrocode(tctx, id, SpinMicrocode, "start"); err != nil {
				t.Errorf("load: %v", err)
				return
			}
			for n := 1; n <= iterations; n++ {
				v, err := m.SubmitRun(tctx, id, perRun)
				if err != nil {
					t.Errorf("%s submit: %v", id, err)
					return
				}
				fin := waitRun(t, m, id, v.ID)
				if fin.Status != RunDone || fin.Result.Cycle != uint64(n*perRun) {
					t.Errorf("%s run %d = %+v", id, n, fin)
					return
				}
				// Explicit park now and then; ErrBusy is expected noise
				// right after a run completes.
				if n%2 == 0 {
					if _, err := m.Park(id); err != nil && !errors.Is(err, ErrBusy) {
						t.Errorf("%s park: %v", id, err)
						return
					}
				}
				if st, err := m.ReadState(tctx, id); err != nil || st.Cycle != uint64(n*perRun) {
					t.Errorf("%s state after %d = %+v, %v", id, n, st, err)
					return
				}
			}
		}(i)
	}
	wg.Wait()
	close(stop)
	aux.Wait()
	drainNow(t, m)

	// Restart over the same store: every session is back with its exact
	// final cycle count.
	m2 := New(Config{Workers: 2, Store: openStore(t, dir)})
	defer drainNow(t, m2)
	infos := m2.Sessions()
	if len(infos) != sessions {
		t.Fatalf("restarted fleet has %d sessions, want %d", len(infos), sessions)
	}
	const want = uint64(iterations * perRun)
	for _, in := range infos {
		if !in.Parked {
			t.Errorf("%s not parked after restart", in.ID)
		}
		st, err := m2.ReadState(tctx, in.ID)
		if err != nil || st.Cycle != want {
			t.Errorf("%s revived cycle = %d (%v), want %d", in.ID, st.Cycle, err, want)
		}
	}
}

// TestRunIDsDenseUnderRefusals: a submission refused with ErrOverloaded
// spends no run id, so the accepted runs are r1..rN however refusals and
// concurrent submitters interleave, and every SSE "run" event names a run
// that GetRun reports with the same status.
func TestRunIDsDenseUnderRefusals(t *testing.T) {
	const submitters, each = 4, 7
	const total = 2 + submitters*each // 30 runs: none is evicted
	m, ts := newTestServer(t, Config{Workers: 1, QueueDepth: 2})
	id, err := m.Create(smallSpec())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := m.LoadMicrocode(tctx, id, SpinMicrocode, "start"); err != nil {
		t.Fatal(err)
	}
	resp, err := http.Get(ts.URL + "/v1/sessions/" + id + "/events?interval_ms=10000")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	br := bufio.NewReader(resp.Body)
	if ev, ok := readSSE(t, br); !ok || ev.name != "stats" {
		t.Fatalf("first event = %+v, ok %v", ev, ok)
	}
	events := make(chan RunView, total)
	go func() {
		defer close(events)
		for {
			ev, ok := readSSE(t, br)
			if !ok {
				return
			}
			var v RunView
			if ev.name == "run" && json.Unmarshal([]byte(ev.data), &v) == nil {
				events <- v
			}
		}
	}()

	var refused atomic.Uint64
	ids := make(chan string, total)
	submit := func(n int) {
		for n > 0 {
			v, err := m.SubmitRun(tctx, id, 2000)
			switch {
			case errors.Is(err, ErrOverloaded):
				refused.Add(1)
				runtime.Gosched()
			case err != nil:
				t.Errorf("submit: %v", err)
				return
			default:
				ids <- v.ID
				n--
			}
		}
	}
	// A blocked worker makes the first refusal certain: two runs fill
	// the queue and the third is refused until the worker moves on.
	running, release := blockSession(t, m, id)
	<-running
	submit(2)
	if _, err := m.SubmitRun(tctx, id, 2000); !errors.Is(err, ErrOverloaded) {
		t.Fatalf("third submission behind a blocked worker: %v", err)
	}
	release()
	var wg sync.WaitGroup
	for g := 0; g < submitters; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			submit(each)
		}()
	}
	wg.Wait()
	close(ids)
	seen := map[string]bool{}
	for rid := range ids {
		seen[rid] = true
	}
	for i := 1; i <= total; i++ {
		if !seen[fmt.Sprintf("r%d", i)] {
			t.Errorf("run r%d missing from the %d accepted ids (%d refused)", i, len(seen), refused.Load())
		}
	}
	if len(seen) != total {
		t.Fatalf("%d distinct ids for %d accepted runs", len(seen), total)
	}

	waitRun(t, m, id, fmt.Sprintf("r%d", total)) // one worker: the last is done last
	drainNow(t, m)                               // ends the stream with "bye"
	n := 0
	for v := range events {
		got, err := m.GetRun(id, v.ID)
		if err != nil || got.Status != v.Status {
			t.Errorf("run event %+v, GetRun %+v, %v", v, got, err)
		}
		n++
	}
	if n == 0 {
		t.Error("no run event arrived")
	}
}
