package fleet

import (
	"bufio"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"strings"
	"sync"
	"testing"
	"time"

	"dorado"
	"dorado/internal/memory"
)

// createMetricsSession creates a session with an observability recorder
// attached over the HTTP API.
func createMetricsSession(t *testing.T, base string) string {
	t.Helper()
	var res struct {
		ID string `json:"id"`
	}
	if code := call(t, "POST", base+"/v1/sessions",
		map[string]any{"metrics": true}, &res); code != http.StatusCreated {
		t.Fatalf("create: status %d", code)
	}
	return res.ID
}

// loadAndRun loads the spin workload and runs cycles over the API.
func loadAndRun(t *testing.T, base, id string, cycles uint64) {
	t.Helper()
	if code := call(t, "POST", base+"/v1/sessions/"+id+"/microcode",
		map[string]string{"text": SpinMicrocode}, nil); code != http.StatusOK {
		t.Fatalf("microcode: status %d", code)
	}
	if code := runHTTP(t, base, id, cycles, nil); code != http.StatusAccepted {
		t.Fatalf("run: status %d", code)
	}
}

func TestServerTraceAndObs(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 2})
	id := createMetricsSession(t, ts.URL)
	loadAndRun(t, ts.URL, id, 5000)

	// /trace returns Chrome trace_event JSON.
	resp, err := http.Get(ts.URL + "/v1/sessions/" + id + "/trace")
	if err != nil {
		t.Fatal(err)
	}
	var trace struct {
		TraceEvents     []map[string]any `json:"traceEvents"`
		DisplayTimeUnit string           `json:"displayTimeUnit"`
	}
	err = json.NewDecoder(resp.Body).Decode(&trace)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK || err != nil {
		t.Fatalf("trace: status %d, decode %v", resp.StatusCode, err)
	}
	if ct := resp.Header.Get("Content-Type"); ct != "application/json" {
		t.Errorf("trace content-type = %q", ct)
	}
	if len(trace.TraceEvents) == 0 {
		t.Error("trace has no events")
	}

	// /obs returns the condensed summary with the machine's cycle counter.
	var obsRes ObsResult
	if code := call(t, "GET", ts.URL+"/v1/sessions/"+id+"/obs", nil, &obsRes); code != http.StatusOK {
		t.Fatalf("obs: status %d", code)
	}
	if obsRes.ID != id || obsRes.Cycle != 5000 || obsRes.Revived {
		t.Fatalf("obs = %+v", obsRes)
	}
	if obsRes.Obs.TimelineInterval == 0 {
		t.Error("obs summary has no timeline interval")
	}

	// A session without a recorder refuses with 409.
	plain := createSession(t, ts.URL, "")
	for _, path := range []string{"/trace", "/obs"} {
		var errBody struct {
			Error string `json:"error"`
		}
		if code := call(t, "GET", ts.URL+"/v1/sessions/"+plain+path, nil, &errBody); code != http.StatusConflict {
			t.Errorf("%s on plain session: status %d", path, code)
		}
		if !strings.Contains(errBody.Error, "no metrics") {
			t.Errorf("%s error = %q", path, errBody.Error)
		}
	}

	// Unknown sessions 404 on every observability route.
	for _, path := range []string{"/trace", "/obs", "/events"} {
		if code := call(t, "GET", ts.URL+"/v1/sessions/nope"+path, nil, nil); code != http.StatusNotFound {
			t.Errorf("%s on unknown session: status %d", path, code)
		}
	}
}

// TestServerTraceParkedSession exports a trace from a parked session: the
// request revives the machine, and the resulting document is valid Chrome
// trace JSON covering the span since revival.
func TestServerTraceParkedSession(t *testing.T) {
	clock := struct {
		sync.Mutex
		t time.Time
	}{t: time.Unix(1000, 0)}
	now := func() time.Time {
		clock.Lock()
		defer clock.Unlock()
		return clock.t
	}
	m, ts := newTestServer(t, Config{Workers: 1, IdleAfter: time.Minute, sweepEvery: time.Hour, now: now})

	id, err := m.Create(Spec{
		Metrics: true,
		Machine: dorado.Config{Memory: memory.Config{StorageWords: 1 << 14}},
	})
	if err != nil {
		t.Fatal(err)
	}
	loadAndRun(t, ts.URL, id, 3000)

	clock.Lock()
	clock.t = clock.t.Add(2 * time.Minute)
	clock.Unlock()
	if n := m.Sweep(); n != 1 {
		t.Fatalf("sweep parked %d sessions, want 1", n)
	}
	if h := m.Health(); h.Sessions.Parked != 1 || h.Sessions.Active != 0 {
		t.Fatalf("health after park = %+v", h)
	}

	resp, err := http.Get(ts.URL + "/v1/sessions/" + id + "/trace")
	if err != nil {
		t.Fatal(err)
	}
	var trace struct {
		TraceEvents []map[string]any `json:"traceEvents"`
	}
	err = json.NewDecoder(resp.Body).Decode(&trace)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK || err != nil {
		t.Fatalf("parked trace: status %d, decode %v", resp.StatusCode, err)
	}
	// The revived recorder is fresh, so the document has only metadata
	// events — but it must still be a well-formed trace.
	if len(trace.TraceEvents) == 0 {
		t.Error("parked trace has no events at all")
	}
	if h := m.Health(); h.Sessions.Active != 1 || h.Sessions.Parked != 0 {
		t.Fatalf("health after revival = %+v", h)
	}
}

// sseEvent is one parsed Server-Sent Event.
type sseEvent struct {
	name string
	data string
}

// readSSE parses one event from the stream (blocking until it arrives).
func readSSE(t *testing.T, r *bufio.Reader) (sseEvent, bool) {
	t.Helper()
	var ev sseEvent
	for {
		line, err := r.ReadString('\n')
		if err != nil {
			return ev, false
		}
		line = strings.TrimRight(line, "\n")
		switch {
		case strings.HasPrefix(line, "event: "):
			ev.name = strings.TrimPrefix(line, "event: ")
		case strings.HasPrefix(line, "data: "):
			ev.data = strings.TrimPrefix(line, "data: ")
		case line == "" && ev.name != "":
			return ev, true
		}
	}
}

func TestServerEventsStream(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 2})
	id := createSession(t, ts.URL, "")
	loadAndRun(t, ts.URL, id, 2000)

	resp, err := http.Get(ts.URL + "/v1/sessions/" + id + "/events?interval_ms=50")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("events: status %d", resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); ct != "text/event-stream" {
		t.Fatalf("events content-type = %q", ct)
	}
	br := bufio.NewReader(resp.Body)
	ev, ok := readSSE(t, br)
	if !ok || ev.name != "stats" {
		t.Fatalf("first event = %+v, ok %v", ev, ok)
	}
	var stats Event
	if err := json.Unmarshal([]byte(ev.data), &stats); err != nil {
		t.Fatalf("stats data %q: %v", ev.data, err)
	}
	if stats.ID != id || stats.Cycle != 2000 || stats.Parked {
		t.Fatalf("stats = %+v", stats)
	}

	// Destroying the session terminates the stream with a bye event.
	if code := call(t, "DELETE", ts.URL+"/v1/sessions/"+id, nil, nil); code != http.StatusOK {
		t.Fatalf("destroy: status %d", code)
	}
	for {
		ev, ok := readSSE(t, br)
		if !ok {
			t.Fatal("stream ended without a bye event")
		}
		if ev.name == "bye" {
			if !strings.Contains(ev.data, "destroyed") {
				t.Fatalf("bye data = %q", ev.data)
			}
			break
		}
	}

	// A bad interval is a 400, not a silent default.
	if code := call(t, "GET", ts.URL+"/v1/sessions/"+createSession(t, ts.URL, "")+"/events?interval_ms=nope",
		nil, nil); code != http.StatusBadRequest {
		t.Fatalf("bad interval: status %d", code)
	}
}

// TestEventsAreOneView: every stats event is one operation's published
// view. While runs execute on a device session (the emulator loop and
// the disk task both take cycles), each event's per-task cycles sum to
// its cycle counter, an invariant of the machine's Stats, and neither the
// cycle counter nor the operation count ever goes back.
func TestEventsAreOneView(t *testing.T) {
	m := New(Config{Workers: 2})
	defer drainNow(t, m)

	id, err := m.Create(Spec{Devices: []DeviceSpec{{Name: "disk", Start: "disk"}}})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := m.LoadMicrocode(tctx, id, diskMicrocode, "emu"); err != nil {
		t.Fatal(err)
	}
	s, _ := m.lookup(id)
	const runs = 200
	done := make(chan error, 1)
	go func() {
		for i := 0; i < runs; i++ {
			if _, err := m.Run(tctx, id, 1000); err != nil {
				done <- err
				return
			}
		}
		done <- nil
	}()

	var last Event
	for events := 0; ; events++ {
		ev := sessionEvent(s)
		var sum uint64
		for _, tb := range ev.Tasks {
			sum += tb.Cycles
		}
		if sum != ev.Cycle {
			t.Fatalf("event %d: tasks %+v sum to %d, cycle counter %d", events, ev.Tasks, sum, ev.Cycle)
		}
		if ev.Cycle < last.Cycle || ev.Ops < last.Ops {
			t.Fatalf("event %d went back: cycle %d ops %d after cycle %d ops %d", events, ev.Cycle, ev.Ops, last.Cycle, last.Ops)
		}
		last = ev
		select {
		case err := <-done:
			if err != nil {
				t.Fatal(err)
			}
			ev := sessionEvent(s)
			if ev.Ops != runs+1 || ev.Cycle != runs*1000 || len(ev.Tasks) < 2 {
				t.Fatalf("final event %+v, want %d ops at cycle %d on two tasks or more", ev, runs+1, runs*1000)
			}
			t.Logf("%d events checked", events+1)
			return
		default:
		}
	}
}

// TestServerEventsDrain is the drain regression test: an in-flight
// /events stream must terminate promptly (with a "drain" bye) when the
// manager drains, rather than holding the connection — and the drain
// request itself must not wait on the stream.
func TestServerEventsDrain(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 1})
	id := createSession(t, ts.URL, "")

	// Long interval: without the drain signal the next event would be 10
	// seconds out, so a prompt bye can only come from DrainSignal.
	resp, err := http.Get(ts.URL + "/v1/sessions/" + id + "/events?interval_ms=10000")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	br := bufio.NewReader(resp.Body)
	if ev, ok := readSSE(t, br); !ok || ev.name != "stats" {
		t.Fatalf("first event = %+v, ok %v", ev, ok)
	}

	drained := make(chan int, 1)
	go func() {
		drained <- call(t, "POST", ts.URL+"/v1/drain", nil, nil)
	}()

	byeC := make(chan sseEvent, 1)
	go func() {
		for {
			ev, ok := readSSE(t, br)
			if !ok {
				return
			}
			if ev.name == "bye" {
				byeC <- ev
				return
			}
		}
	}()
	select {
	case ev := <-byeC:
		if !strings.Contains(ev.data, "drain") {
			t.Fatalf("bye data = %q", ev.data)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("no bye event after drain")
	}
	select {
	case code := <-drained:
		if code != http.StatusOK {
			t.Fatalf("drain: status %d", code)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("drain blocked by the event stream")
	}
}

func TestServerHealthzCounts(t *testing.T) {
	m, ts := newTestServer(t, Config{Workers: 1})
	var h Health
	if code := call(t, "GET", ts.URL+"/healthz", nil, &h); code != http.StatusOK {
		t.Fatalf("healthz: status %d", code)
	}
	if h.Status != "ok" || h.Sessions.Total != 0 {
		t.Fatalf("empty health = %+v", h)
	}
	a := createSession(t, ts.URL, "")
	createSession(t, ts.URL, "")
	if code := call(t, "GET", ts.URL+"/healthz", nil, &h); code != http.StatusOK {
		t.Fatal("healthz failed")
	}
	if h.Sessions.Active != 2 || h.Sessions.Parked != 0 || h.Sessions.Total != 2 {
		t.Fatalf("health after creates = %+v", h)
	}
	if err := m.Destroy(a); err != nil {
		t.Fatal(err)
	}
	if code := call(t, "GET", ts.URL+"/healthz", nil, &h); code != http.StatusOK {
		t.Fatal("healthz failed")
	}
	if h.Sessions.Active != 1 || h.Sessions.Total != 1 {
		t.Fatalf("health after destroy = %+v", h)
	}
}

// TestServerOpLatencyMetrics checks the per-operation queue-wait and
// service-time histogram vectors reach the Prometheus exposition with op
// labels.
func TestServerOpLatencyMetrics(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 1})
	id := createSession(t, ts.URL, "")
	loadAndRun(t, ts.URL, id, 1000)

	resp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil || resp.StatusCode != http.StatusOK {
		t.Fatalf("metrics: %v status %d", err, resp.StatusCode)
	}
	text := string(body)
	for _, want := range []string{
		"# TYPE dorado_fleet_op_queue_us histogram",
		"# TYPE dorado_fleet_op_service_us histogram",
		`dorado_fleet_op_queue_us_bucket{op="run",le="+Inf"} 1`,
		`dorado_fleet_op_service_us_count{op="run"} 1`,
		`dorado_fleet_op_service_us_count{op="microcode"} 1`,
		`dorado_fleet_op_queue_us_count{op="snapshot"} 0`,
	} {
		if !strings.Contains(text, want) {
			t.Errorf("metrics missing %q", want)
		}
	}
}

// TestServerEventsWatcherCap: a session serves at most maxWatchers event
// streams; the next is refused with too_many_watchers (429) until one
// closes, which frees its slot.
func TestServerEventsWatcherCap(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 1})
	id := createSession(t, ts.URL, "")
	url := ts.URL + "/v1/sessions/" + id + "/events?interval_ms=10000"
	open := func() *http.Response {
		t.Helper()
		resp, err := http.Get(url)
		if err != nil {
			t.Fatal(err)
		}
		return resp
	}
	var streams []*http.Response
	defer func() {
		for _, resp := range streams {
			resp.Body.Close()
		}
	}()
	for i := 0; i < maxWatchers; i++ {
		resp := open()
		streams = append(streams, resp)
		// The first event arrives after the subscription, so the slot is
		// held once it is read.
		if ev, ok := readSSE(t, bufio.NewReader(resp.Body)); resp.StatusCode != http.StatusOK || !ok || ev.name != "stats" {
			t.Fatalf("stream %d: status %d, first event %+v", i, resp.StatusCode, ev)
		}
	}
	resp := open()
	var env ErrorEnvelope
	err := json.NewDecoder(resp.Body).Decode(&env)
	resp.Body.Close()
	if resp.StatusCode != http.StatusTooManyRequests || err != nil || env.Code != "too_many_watchers" {
		t.Fatalf("stream %d: status %d, envelope %+v (%v), want 429 too_many_watchers", maxWatchers+1, resp.StatusCode, env, err)
	}

	streams[0].Body.Close()
	streams = streams[1:]
	deadline := time.Now().Add(5 * time.Second)
	for {
		resp := open()
		if resp.StatusCode == http.StatusOK {
			streams = append(streams, resp)
			break
		}
		resp.Body.Close()
		if time.Now().After(deadline) {
			t.Fatalf("closing a stream did not free its slot: status %d", resp.StatusCode)
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// stalledWriter is the server side of a client that stopped reading: every
// write blocks until the write deadline the handler set, then fails as a
// socket write past its deadline does.
type stalledWriter struct {
	header   http.Header
	mu       sync.Mutex
	deadline time.Time
}

func (w *stalledWriter) Header() http.Header { return w.header }
func (w *stalledWriter) WriteHeader(int)     {}
func (w *stalledWriter) FlushError() error   { return nil }

func (w *stalledWriter) SetWriteDeadline(d time.Time) error {
	w.mu.Lock()
	defer w.mu.Unlock()
	w.deadline = d
	return nil
}

func (w *stalledWriter) Write(p []byte) (int, error) {
	w.mu.Lock()
	d := w.deadline
	w.mu.Unlock()
	if d.IsZero() {
		// No deadline: a real socket would block for good. Give up after
		// a while so the test fails instead of hanging.
		d = time.Now().Add(3 * time.Second)
	}
	time.Sleep(time.Until(d))
	return 0, os.ErrDeadlineExceeded
}

// TestServerEventsStalledReader: a stream whose client stops reading is
// dropped once a write misses its deadline, and its watcher slot is
// freed.
func TestServerEventsStalledReader(t *testing.T) {
	m := New(Config{Workers: 1})
	defer drainNow(t, m)
	srv := NewServer(m)
	srv.eventWriteTimeout = 50 * time.Millisecond
	ts := httptest.NewServer(srv)
	defer ts.Close()
	id := createSession(t, ts.URL, "")
	sess, ok := m.lookup(id)
	if !ok {
		t.Fatal("session not found")
	}

	w := &stalledWriter{header: http.Header{}}
	req := httptest.NewRequest("GET", "/v1/sessions/"+id+"/events?interval_ms=50", nil)
	done := make(chan struct{})
	start := time.Now()
	go func() {
		srv.ServeHTTP(w, req)
		close(done)
	}()
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		t.Fatal("stream to a stalled reader was not dropped")
	}
	if took := time.Since(start); took > 2*time.Second {
		t.Errorf("stalled stream took %v to drop, want about the write timeout", took)
	}
	w.mu.Lock()
	deadline := w.deadline
	w.mu.Unlock()
	if deadline.IsZero() {
		t.Error("the stream wrote without a write deadline")
	}
	sess.mu.Lock()
	n := len(sess.watchers)
	sess.mu.Unlock()
	if n != 0 {
		t.Errorf("%d watchers still registered after the stalled stream ended", n)
	}
}
