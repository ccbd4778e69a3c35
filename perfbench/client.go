package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"slices"
	"sort"
	"strings"
	"sync"
	"time"
)

// tally counts requests and failures per operation kind and keeps the
// latencies of the timed operations. Failures are HTTP 4xx/5xx answers,
// transport errors and failed output checks; a park answered 409 busy
// and retried counts as a retry, not a failure. It is shared by the
// client goroutines.
type tally struct {
	mu       sync.Mutex
	ops      map[string]*opCount
	lat      map[string][]float64 // milliseconds, successful operations only
	checks   int                  // failed output checks
	firstErr []string
}

type opCount struct{ sent, ok, failed, retries, rejected int }

func newTally() *tally {
	return &tally{ops: map[string]*opCount{}, lat: map[string][]float64{}}
}

func (t *tally) op(kind string) *opCount {
	c := t.ops[kind]
	if c == nil {
		c = &opCount{}
		t.ops[kind] = c
	}
	return c
}

// sent records one request's outcome: err nil is a success, a 429, 503
// or 507 answer is also counted as a rejection.
func (t *tally) sent(kind string, status int, err error) {
	t.mu.Lock()
	defer t.mu.Unlock()
	c := t.op(kind)
	c.sent++
	if err == nil {
		c.ok++
		return
	}
	c.failed++
	if status == http.StatusTooManyRequests || status == http.StatusServiceUnavailable || status == http.StatusInsufficientStorage {
		c.rejected++
	}
	t.noteLocked(fmt.Sprintf("%s: %v", kind, err))
}

func (t *tally) retried(kind string) {
	t.mu.Lock()
	t.op(kind).retries++
	t.op(kind).sent++
	t.mu.Unlock()
}

// fail records a failure of an operation whose request was already
// counted, such as a run whose completion event never arrived.
func (t *tally) fail(kind string, err error) {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.op(kind).failed++
	t.noteLocked(fmt.Sprintf("%s: %v", kind, err))
}

// check records a failed output check against kind.
func (t *tally) check(kind, format string, args ...any) {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.checks++
	t.op(kind).failed++
	t.noteLocked(fmt.Sprintf("check %s: %s", kind, fmt.Sprintf(format, args...)))
}

func (t *tally) noteLocked(msg string) {
	if len(t.firstErr) < 8 {
		t.firstErr = append(t.firstErr, msg)
	}
}

func (t *tally) observe(name string, d time.Duration) {
	t.mu.Lock()
	t.lat[name] = append(t.lat[name], float64(d)/1e6)
	t.mu.Unlock()
}

// marks returns the number of latency samples of each kind so far.
func (t *tally) marks() map[string]int {
	t.mu.Lock()
	defer t.mu.Unlock()
	m := make(map[string]int, len(t.lat))
	for k, xs := range t.lat {
		m[k] = len(xs)
	}
	return m
}

func (t *tally) samples(name string) []float64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	return slices.Clone(t.lat[name])
}

// totals returns requests attempted and operations failed, all kinds.
func (t *tally) totals() (attempted, failed int) {
	t.mu.Lock()
	defer t.mu.Unlock()
	for _, c := range t.ops {
		attempted += c.sent
		failed += c.failed
	}
	return attempted, failed
}

func (t *tally) sum(field func(*opCount) int) int {
	t.mu.Lock()
	defer t.mu.Unlock()
	n := 0
	for _, c := range t.ops {
		n += field(c)
	}
	return n
}

// report writes the per-kind request table.
func (t *tally) report(w io.Writer, title string) {
	t.mu.Lock()
	defer t.mu.Unlock()
	kinds := make([]string, 0, len(t.ops))
	for k := range t.ops {
		kinds = append(kinds, k)
	}
	sort.Strings(kinds)
	fmt.Fprintf(w, "%s requests: %-8s %8s %8s %8s %8s\n", title, "op", "sent", "ok", "failed", "retries")
	for _, k := range kinds {
		c := t.ops[k]
		fmt.Fprintf(w, "%s requests: %-8s %8d %8d %8d %8d\n", title, k, c.sent, c.ok, c.failed, c.retries)
	}
	for _, e := range t.firstErr {
		fmt.Fprintf(w, "%s error: %s\n", title, e)
	}
}

// client is one closed-loop benchmark client: it sends its next request
// only after the previous one has been answered. Its transport keeps one
// keep-alive API connection; an open event stream holds a second one.
type client struct {
	id   int
	base string
	hc   *http.Client
	t    *tally
}

func newClient(id int, base string, t *tally) *client {
	tr := &http.Transport{MaxIdleConnsPerHost: 2, DisableCompression: true, IdleConnTimeout: time.Minute}
	return &client{id: id, base: base, hc: &http.Client{Transport: tr}, t: t}
}

func (c *client) close() { c.hc.CloseIdleConnections() }

// httpError is a non-2xx answer with the server's error envelope.
type httpError struct {
	status int
	code   string
	msg    string
}

func (e *httpError) Error() string { return fmt.Sprintf("HTTP %d %s: %s", e.status, e.code, e.msg) }

// call sends one JSON request and decodes a 2xx answer into out. It does
// not count the request; do and the retry loops do.
func (c *client) call(ctx context.Context, method, path string, in, out any) (int, error) {
	var body io.Reader
	if in != nil {
		b, err := json.Marshal(in)
		if err != nil {
			return 0, err
		}
		body = bytes.NewReader(b)
	}
	req, err := http.NewRequestWithContext(ctx, method, c.base+path, body)
	if err != nil {
		return 0, err
	}
	resp, err := c.hc.Do(req)
	if err != nil {
		return 0, err
	}
	data, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		return resp.StatusCode, err
	}
	if resp.StatusCode >= 400 {
		var env struct{ Code, Error string }
		json.Unmarshal(data, &env) //nolint:errcheck // the status alone is the failure
		return resp.StatusCode, &httpError{status: resp.StatusCode, code: env.Code, msg: env.Error}
	}
	if out != nil {
		if err := json.Unmarshal(data, out); err != nil {
			return resp.StatusCode, fmt.Errorf("%s %s: decoding answer: %w", method, path, err)
		}
	}
	return resp.StatusCode, nil
}

// do sends one counted request.
func (c *client) do(ctx context.Context, kind, method, path string, in, out any) error {
	status, err := c.call(ctx, method, path, in, out)
	c.t.sent(kind, status, err)
	return err
}

// sessionState is the part of GET /v1/sessions/{id} the checks compare.
type sessionState struct {
	Parked bool     `json:"parked"`
	Cycle  uint64   `json:"cycle"`
	Halted bool     `json:"halted"`
	Stack  []uint16 `json:"stack"`
}

func (s sessionState) same(o sessionState) bool {
	return s.Cycle == o.Cycle && s.Halted == o.Halted && slices.Equal(s.Stack, o.Stack)
}

type runResult struct {
	Ran    uint64 `json:"ran"`
	Cycle  uint64 `json:"cycle"`
	Halted bool   `json:"halted"`
}

type runView struct {
	ID     string     `json:"id"`
	Status string     `json:"status"`
	Result *runResult `json:"result"`
	Error  string     `json:"error"`
}

func (c *client) create(ctx context.Context, k sessionKind) (string, error) {
	var out struct{ ID string }
	err := c.do(ctx, "create", "POST", "/v1/sessions", k.createBody(), &out)
	return out.ID, err
}

// load boots a Mesa program or loads microcode, by session kind.
func (c *client) load(ctx context.Context, k sessionKind, id, program string) error {
	if k == kindDevices {
		return c.do(ctx, "load", "POST", "/v1/sessions/"+id+"/microcode", map[string]string{"text": program, "start": "emu"}, nil)
	}
	return c.do(ctx, "boot", "POST", "/v1/sessions/"+id+"/boot", map[string]string{"source": program}, nil)
}

func (c *client) state(ctx context.Context, kind, id string) (sessionState, error) {
	var st sessionState
	err := c.do(ctx, kind, "GET", "/v1/sessions/"+id, nil, &st)
	return st, err
}

func (c *client) fork(ctx context.Context, hash string) (string, error) {
	var out struct{ ID string }
	err := c.do(ctx, "fork", "POST", "/v1/sessions", map[string]string{"from": hash}, &out)
	return out.ID, err
}

func (c *client) destroy(ctx context.Context, id string) error {
	return c.do(ctx, "destroy", "DELETE", "/v1/sessions/"+id, nil, nil)
}

// park parks a session and returns its snapshot hash. A 409 busy answer
// means the worker has not yet released the session after its last
// operation; the park is retried and counted as a retry.
func (c *client) park(ctx context.Context, kind, id string) (string, error) {
	for attempt := 0; ; attempt++ {
		var out struct {
			Parked   bool
			Snapshot string
		}
		status, err := c.call(ctx, "POST", "/v1/sessions/"+id+"/park", nil, &out)
		var he *httpError
		if errors.As(err, &he) && he.code == "busy" && attempt < 1000 {
			c.t.retried(kind)
			time.Sleep(200 * time.Microsecond)
			continue
		}
		c.t.sent(kind, status, err)
		if err == nil && (!out.Parked || out.Snapshot == "") {
			c.t.check(kind, "session %s: park answered parked=%v snapshot=%q", id, out.Parked, out.Snapshot)
			return "", errors.New("park without a snapshot hash")
		}
		return out.Snapshot, err
	}
}

// events is an open SSE stream of one session.
type events struct {
	body io.ReadCloser
	rd   *bufio.Reader
}

// openEvents subscribes to the session's event stream. The server
// registers the subscription before it answers, so a run submitted after
// openEvents returns is always reported on the stream.
func (c *client) openEvents(ctx context.Context, id string) (*events, error) {
	req, err := http.NewRequestWithContext(ctx, "GET", c.base+"/v1/sessions/"+id+"/events?interval_ms=10000", nil)
	if err != nil {
		return nil, err
	}
	resp, err := c.hc.Do(req)
	if err == nil && resp.StatusCode != http.StatusOK {
		resp.Body.Close()
		err = &httpError{status: resp.StatusCode, msg: "event stream refused"}
	}
	status := 0
	if resp != nil {
		status = resp.StatusCode
	}
	c.t.sent("events", status, err)
	if err != nil {
		return nil, err
	}
	return &events{body: resp.Body, rd: bufio.NewReader(resp.Body)}, nil
}

func (e *events) close() { e.body.Close() }

// next reads one event and returns its name and data.
func (e *events) next() (string, []byte, error) {
	var name string
	var data []byte
	for {
		line, err := e.rd.ReadString('\n')
		if err != nil {
			return "", nil, fmt.Errorf("event stream: %w", err)
		}
		line = strings.TrimRight(line, "\r\n")
		switch {
		case line == "":
			if name != "" || data != nil {
				return name, data, nil
			}
		case strings.HasPrefix(line, "event: "):
			name = line[len("event: "):]
		case strings.HasPrefix(line, "data: "):
			data = append(data, line[len("data: "):]...)
		}
	}
}

// run submits one async run of n cycles and waits for its "run" event.
// It returns the time from sending the request to reading the event and
// checks that the run simulated exactly n cycles.
func (c *client) run(ctx context.Context, ev *events, id string, n uint64) (time.Duration, error) {
	start := time.Now()
	var sub runView
	if err := c.do(ctx, "run", "POST", "/v1/sessions/"+id+"/runs", map[string]uint64{"cycles": n}, &sub); err != nil {
		return 0, err
	}
	for {
		name, data, err := ev.next()
		if err != nil {
			c.t.fail("run", err)
			return 0, err
		}
		if name == "bye" {
			err := fmt.Errorf("session %s: stream ended: %s", id, data)
			c.t.fail("run", err)
			return 0, err
		}
		if name != "run" {
			continue
		}
		var v runView
		if err := json.Unmarshal(data, &v); err != nil {
			c.t.fail("run", err)
			return 0, err
		}
		if v.ID != sub.ID {
			continue
		}
		d := time.Since(start)
		if v.Status != "done" || v.Result == nil || v.Result.Ran != n {
			ran := uint64(0)
			if v.Result != nil {
				ran = v.Result.Ran
			}
			c.t.check("run", "session %s run %s: status %s ran %d of %d cycles %s", id, v.ID, v.Status, ran, n, v.Error)
			return 0, errors.New("run check failed")
		}
		return d, nil
	}
}
