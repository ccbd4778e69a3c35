package fleet

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"dorado/internal/store"
)

// newTestServer builds a manager + HTTP server; the manager is returned so
// tests can reach behind the API (block workers, force sweeps).
func newTestServer(t *testing.T, cfg Config) (*Manager, *httptest.Server) {
	t.Helper()
	m := New(cfg)
	ts := httptest.NewServer(NewServer(m))
	t.Cleanup(func() {
		ts.Close()
		drainNow(t, m)
	})
	return m, ts
}

// call does one JSON request and decodes the response body into out (when
// non-nil), returning the status code.
func call(t *testing.T, method, url string, body any, out any) int {
	t.Helper()
	var rd io.Reader
	switch b := body.(type) {
	case nil:
	case []byte:
		rd = bytes.NewReader(b)
	default:
		data, err := json.Marshal(b)
		if err != nil {
			t.Fatal(err)
		}
		rd = bytes.NewReader(data)
	}
	req, err := http.NewRequest(method, url, rd)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	if out != nil {
		if err := json.Unmarshal(data, out); err != nil {
			t.Fatalf("%s %s: decoding %q: %v", method, url, data, err)
		}
	}
	return resp.StatusCode
}

// runHTTP runs cycles on a session through the runs resource: POST
// .../runs, then poll GET .../runs/{rid} until the run finishes. It returns
// the submit's status. Admission errors (400, 404, 429, 503) answer
// synchronously and out receives the error envelope; an admitted run
// (202) must finish done, and out receives its RunResult.
func runHTTP(t *testing.T, base, id string, cycles uint64, out any) int {
	t.Helper()
	var body json.RawMessage
	code := call(t, "POST", base+"/v1/sessions/"+id+"/runs", map[string]uint64{"cycles": cycles}, &body)
	if code == http.StatusAccepted {
		var sub RunView
		if err := json.Unmarshal(body, &sub); err != nil {
			t.Fatal(err)
		}
		var err error
		if body, err = json.Marshal(pollRun(t, base, id, sub.ID).Result); err != nil {
			t.Fatal(err)
		}
	}
	if out != nil {
		if err := json.Unmarshal(body, out); err != nil {
			t.Fatalf("run %s: decoding %q: %v", id, body, err)
		}
	}
	return code
}

// pollRun polls one run over HTTP until it finishes and fails the test
// unless it finished done.
func pollRun(t *testing.T, base, id, rid string) RunView {
	t.Helper()
	deadline := time.Now().Add(30 * time.Second)
	for {
		var v RunView
		if code := call(t, "GET", base+"/v1/sessions/"+id+"/runs/"+rid, nil, &v); code != http.StatusOK {
			t.Fatalf("poll run %s/%s: status %d", id, rid, code)
		}
		switch {
		case v.Status == RunDone:
			return v
		case v.Status == RunFailed:
			t.Fatalf("run %s/%s failed: %s", id, rid, v.Error)
		case time.Now().After(deadline):
			t.Fatalf("run %s/%s still %s", id, rid, v.Status)
		}
		time.Sleep(time.Millisecond)
	}
}

func createSession(t *testing.T, base, lang string) string {
	t.Helper()
	var res struct {
		ID string `json:"id"`
	}
	if code := call(t, "POST", base+"/v1/sessions", map[string]any{"language": lang}, &res); code != http.StatusCreated {
		t.Fatalf("create: status %d", code)
	}
	return res.ID
}

func TestServerSessionLifecycle(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 2})
	id := createSession(t, ts.URL, "mesa")

	// Boot source, run to halt, read the result off the stack.
	if code := call(t, "POST", ts.URL+"/v1/sessions/"+id+"/boot",
		map[string]string{"source": "return 6*7;"}, nil); code != http.StatusOK {
		t.Fatalf("boot: status %d", code)
	}
	var run RunResult
	if code := runHTTP(t, ts.URL, id, 1_000_000, &run); code != http.StatusAccepted {
		t.Fatalf("run: status %d", code)
	}
	if !run.Halted {
		t.Fatalf("run = %+v", run)
	}
	var st State
	if code := call(t, "GET", ts.URL+"/v1/sessions/"+id, nil, &st); code != http.StatusOK {
		t.Fatalf("state: status %d", code)
	}
	if len(st.Stack) != 1 || st.Stack[0] != 42 || st.Language != "Mesa" {
		t.Fatalf("state = %+v", st)
	}

	// Listing includes the session.
	var list struct {
		Sessions []Info `json:"sessions"`
	}
	if code := call(t, "GET", ts.URL+"/v1/sessions", nil, &list); code != http.StatusOK {
		t.Fatalf("list: status %d", code)
	}
	if len(list.Sessions) != 1 || list.Sessions[0].ID != id || !list.Sessions[0].Halted {
		t.Fatalf("list = %+v", list.Sessions)
	}

	// Destroy, then every session route 404s.
	if code := call(t, "DELETE", ts.URL+"/v1/sessions/"+id, nil, nil); code != http.StatusOK {
		t.Fatalf("destroy: status %d", code)
	}
	for _, probe := range []struct{ method, path string }{
		{"GET", "/v1/sessions/" + id},
		{"DELETE", "/v1/sessions/" + id},
		{"POST", "/v1/sessions/" + id + "/runs"},
		{"GET", "/v1/sessions/" + id + "/snapshot"},
	} {
		body := any(nil)
		if probe.method == "POST" {
			body = map[string]uint64{"cycles": 1}
		}
		if code := call(t, probe.method, ts.URL+probe.path, body, nil); code != http.StatusNotFound {
			t.Errorf("%s %s after destroy: status %d", probe.method, probe.path, code)
		}
	}
}

func TestServerMicrocodeAndSnapshot(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 2})
	id := createSession(t, ts.URL, "")

	var load LoadResult
	if code := call(t, "POST", ts.URL+"/v1/sessions/"+id+"/microcode",
		map[string]string{"text": SpinMicrocode, "start": "start"}, &load); code != http.StatusOK {
		t.Fatalf("microcode: status %d", code)
	}
	if load.Placement == "" {
		t.Error("no placement report")
	}
	// Bad microassembly is the caller's fault.
	if code := call(t, "POST", ts.URL+"/v1/sessions/"+id+"/microcode",
		map[string]string{"text": "bogus clause=1"}, nil); code != http.StatusBadRequest {
		t.Fatalf("bad microcode: status %d", code)
	}

	var run RunResult
	if code := runHTTP(t, ts.URL, id, 1000, &run); code != http.StatusAccepted || run.Cycle != 1000 {
		t.Fatalf("run: status %d, %+v", code, run)
	}

	// Snapshot bytes round-trip through the API.
	resp, err := http.Get(ts.URL + "/v1/sessions/" + id + "/snapshot")
	if err != nil {
		t.Fatal(err)
	}
	snap, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil || resp.StatusCode != http.StatusOK {
		t.Fatalf("snapshot: %v status %d", err, resp.StatusCode)
	}
	if resp.Header.Get("Content-Type") != "application/octet-stream" {
		t.Errorf("snapshot content-type = %q", resp.Header.Get("Content-Type"))
	}
	if code := runHTTP(t, ts.URL, id, 500, nil); code != http.StatusAccepted {
		t.Fatalf("second run: status %d", code)
	}
	if code := call(t, "PUT", ts.URL+"/v1/sessions/"+id+"/snapshot", snap, nil); code != http.StatusOK {
		t.Fatalf("restore: status %d", code)
	}
	var st State
	if code := call(t, "GET", ts.URL+"/v1/sessions/"+id, nil, &st); code != http.StatusOK || st.Cycle != 1000 {
		t.Fatalf("restored state: status %d, %+v", code, st)
	}
	// Garbage restore is a 400, not a crash.
	if code := call(t, "PUT", ts.URL+"/v1/sessions/"+id+"/snapshot", []byte("junk"), nil); code != http.StatusBadRequest {
		t.Fatalf("junk restore: status %d", code)
	}
}

// zeroes is an endless stream of zero bytes for oversized-upload tests.
type zeroes struct{}

func (zeroes) Read(p []byte) (int, error) {
	for i := range p {
		p[i] = 0
	}
	return len(p), nil
}

func TestServerSnapshotTooLarge(t *testing.T) {
	m := New(Config{Workers: 1})
	defer drainNow(t, m)
	srv := NewServer(m)
	id, err := m.Create(smallSpec())
	if err != nil {
		t.Fatal(err)
	}

	// An upload one byte over the cap is an explicit 413, not a confusing
	// restore failure on a silently truncated body.
	req := httptest.NewRequest("PUT", "/v1/sessions/"+id+"/snapshot",
		io.LimitReader(zeroes{}, maxSnapshotBody+1))
	rec := httptest.NewRecorder()
	srv.ServeHTTP(rec, req)
	if rec.Code != http.StatusRequestEntityTooLarge {
		t.Fatalf("oversized snapshot: status %d, body %s", rec.Code, rec.Body)
	}
}

func TestServerValidation(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 1})
	if code := call(t, "POST", ts.URL+"/v1/sessions",
		map[string]string{"language": "fortran"}, nil); code != http.StatusBadRequest {
		t.Fatalf("bad language: status %d", code)
	}
	if code := call(t, "POST", ts.URL+"/v1/sessions",
		[]byte(`{"language": `), nil); code != http.StatusBadRequest {
		t.Fatalf("truncated JSON: status %d", code)
	}
	id := createSession(t, ts.URL, "")
	if code := runHTTP(t, ts.URL, id, 0, nil); code != http.StatusBadRequest {
		t.Fatalf("zero cycles: status %d", code)
	}
	if code := call(t, "POST", ts.URL+"/v1/sessions/"+id+"/boot",
		map[string]string{"source": "func ("}, nil); code != http.StatusBadRequest {
		t.Fatalf("bad source: status %d", code)
	}
}

func TestServerOverload429(t *testing.T) {
	m, ts := newTestServer(t, Config{Workers: 1, QueueDepth: 1})
	id := createSession(t, ts.URL, "")

	running, release := blockSession(t, m, id)
	<-running
	// Fill the queue behind the stuck worker (runs admission is
	// synchronous: a 202 means the run holds a queue slot)...
	var queued RunView
	if code := call(t, "POST", ts.URL+"/v1/sessions/"+id+"/runs",
		map[string]uint64{"cycles": 1}, &queued); code != http.StatusAccepted {
		t.Fatalf("queued submit: status %d", code)
	}
	waitQueue(t, m, id, 1)
	// ...so the next submit bounces with 429.
	var errBody struct {
		Error string `json:"error"`
	}
	if code := runHTTP(t, ts.URL, id, 1, &errBody); code != http.StatusTooManyRequests {
		t.Fatalf("overload: status %d", code)
	}
	if !strings.Contains(errBody.Error, "queue full") {
		t.Errorf("overload body = %+v", errBody)
	}
	release()
	pollRun(t, ts.URL, id, queued.ID)
}

func TestServerDrain(t *testing.T) {
	m, ts := newTestServer(t, Config{Workers: 1})
	id := createSession(t, ts.URL, "")

	if code := call(t, "GET", ts.URL+"/healthz", nil, nil); code != http.StatusOK {
		t.Fatalf("healthz: status %d", code)
	}
	var res struct {
		Drained bool `json:"drained"`
	}
	if code := call(t, "POST", ts.URL+"/v1/drain", nil, &res); code != http.StatusOK || !res.Drained {
		t.Fatalf("drain: status %d, %+v", code, res)
	}
	// Draining: operations 503, health 503, metrics still served.
	if code := runHTTP(t, ts.URL, id, 1, nil); code != http.StatusServiceUnavailable {
		t.Fatalf("run after drain: status %d", code)
	}
	if code := call(t, "POST", ts.URL+"/v1/sessions", map[string]string{}, nil); code != http.StatusServiceUnavailable {
		t.Fatalf("create after drain: status %d", code)
	}
	if code := call(t, "GET", ts.URL+"/healthz", nil, nil); code != http.StatusServiceUnavailable {
		t.Fatalf("healthz after drain: status %d", code)
	}
	select {
	case <-m.DrainSignal():
	default:
		t.Error("manager not draining")
	}
}

func TestServerMetricsEndpoint(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 1})
	id := createSession(t, ts.URL, "")
	if code := call(t, "POST", ts.URL+"/v1/sessions/"+id+"/microcode",
		map[string]string{"text": SpinMicrocode}, nil); code != http.StatusOK {
		t.Fatalf("microcode: status %d", code)
	}
	if code := runHTTP(t, ts.URL, id, 4096, nil); code != http.StatusAccepted {
		t.Fatalf("run: status %d", code)
	}
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
		"# TYPE dorado_fleet_sessions gauge",
		fmt.Sprintf(`dorado_fleet_session_cycles_total{session="%s"} 4096`, id),
		`dorado_fleet_ops_total{op="run"} 1`,
	} {
		if !strings.Contains(text, want) {
			t.Errorf("metrics missing %q", want)
		}
	}
}

func TestServerStoreEndpoints(t *testing.T) {
	m, ts := newTestServer(t, Config{Workers: 1, Store: openStore(t, t.TempDir()), GCMaxAge: -1})
	id := createSession(t, ts.URL, "")
	if code := call(t, "POST", ts.URL+"/v1/sessions/"+id+"/microcode",
		map[string]any{"text": SpinMicrocode, "start": "start"}, nil); code != http.StatusOK {
		t.Fatalf("microcode: status %d", code)
	}
	// Two parks with work in between: the store holds two snapshots, the
	// manifest references one.
	for i := 0; i < 2; i++ {
		if code := runHTTP(t, ts.URL, id, 100, nil); code != http.StatusAccepted {
			t.Fatalf("run: status %d", code)
		}
		parkNow(t, m, id)
	}

	var before store.Stats
	if code := call(t, "GET", ts.URL+"/v1/store", nil, &before); code != http.StatusOK {
		t.Fatalf("store stats: status %d", code)
	}
	if before.Sessions != 1 || before.Recipes != 2 || before.Bytes == 0 {
		t.Fatalf("stats = %+v", before)
	}

	// A sweep with no age grace reclaims the superseded snapshot; bytes
	// demonstrably fall.
	var res store.SweepResult
	if code := call(t, "POST", ts.URL+"/v1/store/gc",
		map[string]any{"max_age_ms": 0}, &res); code != http.StatusOK {
		t.Fatalf("gc: status %d", code)
	}
	if res.ReclaimedRecipes != 1 || res.ReclaimedBytes == 0 {
		t.Fatalf("sweep = %+v", res)
	}
	var after store.Stats
	call(t, "GET", ts.URL+"/v1/store", nil, &after)
	if after.Bytes >= before.Bytes || after.GCRuns != 1 {
		t.Fatalf("after gc = %+v (before %+v)", after, before)
	}

	// An empty body means "use the configured policy" (immediate here).
	if code := call(t, "POST", ts.URL+"/v1/store/gc", nil, &res); code != http.StatusOK {
		t.Fatalf("gc default policy: status %d", code)
	}
	// Negative ages are client errors.
	if code := call(t, "POST", ts.URL+"/v1/store/gc", map[string]any{"max_age_ms": -5}, nil); code != http.StatusBadRequest {
		t.Fatalf("gc negative age: status %d", code)
	}
}

func TestServerStoreEndpointsWithoutStore(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 1})
	var e ErrorEnvelope
	if code := call(t, "GET", ts.URL+"/v1/store", nil, &e); code != http.StatusConflict || e.Code != "no_store" {
		t.Fatalf("stats without store: %d %+v", code, e)
	}
	if code := call(t, "POST", ts.URL+"/v1/store/gc", nil, &e); code != http.StatusConflict || e.Code != "no_store" {
		t.Fatalf("gc without store: %d %+v", code, e)
	}
}

func TestServerCreateWebhook(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 1, WebhookAllow: []string{"https://hooks.example.com"}})
	// Disallowed origin is rejected at create time.
	var e ErrorEnvelope
	if code := call(t, "POST", ts.URL+"/v1/sessions",
		map[string]any{"webhook": "https://evil.example.net/x"}, &e); code != http.StatusBadRequest {
		t.Fatalf("bad webhook origin: status %d (%+v)", code, e)
	}
	// webhook and from are mutually exclusive with the spec fields.
	if code := call(t, "POST", ts.URL+"/v1/sessions",
		map[string]any{"from": strings.Repeat("a", 64), "webhook": "https://hooks.example.com/x"}, &e); code != http.StatusBadRequest {
		t.Fatalf("from+webhook: status %d", code)
	}
	// Allowlisted webhook creates fine.
	var res struct {
		ID string `json:"id"`
	}
	if code := call(t, "POST", ts.URL+"/v1/sessions",
		map[string]any{"webhook": "https://hooks.example.com/runs"}, &res); code != http.StatusCreated {
		t.Fatalf("allowlisted webhook: status %d", code)
	}
	if res.ID == "" {
		t.Fatal("no session id")
	}
}
