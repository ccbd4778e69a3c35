package fleet

import (
	"context"
	"fmt"
	"sync/atomic"
	"time"
)

// This file is the async runs resource: a run is a first-class object
// with an id, a status, and a result that outlives the request that
// submitted it. SubmitRun returns as soon as the run is admitted to the
// session's queue (backpressure errors still arrive synchronously);
// clients poll GetRun or watch the session's SSE stream for the
// run-complete event. The synchronous Manager.Run is a thin wrapper that
// submits and waits — one execution path for both API shapes. A run is
// finished by the worker that ran it, through its operation's completion
// function: no goroutine waits for it.

// RunStatus is a run's lifecycle position.
type RunStatus string

// Run lifecycle states, in order. A run is "queued" from admission until
// a worker picks it up, "running" while the machine advances, and ends
// as exactly one of "done" or "failed".
const (
	RunQueued  RunStatus = "queued"
	RunRunning RunStatus = "running"
	RunDone    RunStatus = "done"
	RunFailed  RunStatus = "failed"
)

// maxRunsRetained bounds each session's finished-run history: submitting
// a run beyond the bound evicts the oldest finished one. In-flight runs
// are never evicted. It also bounds the session's webhook backlog
// (webhook.go).
const maxRunsRetained = 32

// run is one asynchronous run-cycles operation. Its view is never
// changed in place: whoever owns the run at each step replaces it (the
// submitter at admission, the worker at pickup and at completion), and
// readers load it. err is the completion's typed error, written before
// done closes, so Manager.Run can return it.
type run struct {
	view atomic.Pointer[RunView]
	err  error
	done chan struct{}
}

// RunView is the wire representation of a run: what POST .../runs
// returns, what GET .../runs/{rid} polls, and what the SSE "run" event
// carries.
type RunView struct {
	ID      string    `json:"id"`
	Session string    `json:"session"`
	Cycles  uint64    `json:"cycles"`
	Status  RunStatus `json:"status"`
	// Result is set once Status is "done".
	Result *RunResult `json:"result,omitempty"`
	// Error is set once Status is "failed".
	Error     string     `json:"error,omitempty"`
	Submitted time.Time  `json:"submitted"`
	Finished  *time.Time `json:"finished,omitempty"`
}

// detach severs an operation context from its submitting HTTP request —
// an accepted async run must keep executing after the client disconnects
// — while carrying the request id forward so the operation log still
// correlates the run with the request that submitted it.
func detach(ctx context.Context) context.Context {
	out := context.Background()
	if id := RequestID(ctx); id != "" {
		out = context.WithValue(out, requestIDKey, id)
	}
	return out
}

// submitRun admits a run-cycles operation and returns its run object
// without waiting. Admission is synchronous — ErrDraining, ErrNotFound,
// and ErrOverloaded surface here, never inside a queued run. The run is
// listed under its id in the same critical section that queues its
// operation, so no worker can finish a run before it is listed, and a
// refused run spends no id.
func (m *Manager) submitRun(ctx context.Context, id string, cycles uint64) (*run, error) {
	r := &run{done: make(chan struct{})}
	o := &op{ctx: detach(ctx), kind: opRun, fn: func(sys *system) (any, error) {
		v := *r.view.Load()
		v.Status = RunRunning
		r.view.Store(&v)
		before := sys.Machine.Cycle()
		sys.Machine.Run(cycles)
		ran := sys.Machine.Cycle() - before
		m.counters.cycles.Add(ran)
		return RunResult{Ran: ran, Cycle: sys.Machine.Cycle(), Halted: sys.Machine.Halted()}, nil
	}}
	o.complete = func(s *Session, res opResult) { m.finishRun(s, r, res) }
	err := m.submitAsync(id, o, func(s *Session) {
		s.addRunLocked(r, RunView{Session: id, Cycles: cycles, Status: RunQueued, Submitted: m.cfg.now()})
	})
	if err != nil {
		return nil, err
	}
	m.counters.runsSubmitted.Add(1)
	return r, nil
}

// finishRun is a run's completion, called by the worker once the session
// is published and released: it replaces the run's view with the
// terminal one, then fans that view out to the session's SSE watchers
// and hands it to the session's webhook, if one is configured.
func (m *Manager) finishRun(s *Session, r *run, res opResult) {
	v := *r.view.Load()
	finished := m.cfg.now()
	v.Finished = &finished
	if res.err != nil {
		v.Status, v.Error = RunFailed, res.err.Error()
	} else {
		rr := res.value.(RunResult)
		v.Status, v.Result = RunDone, &rr
	}
	r.err = res.err
	r.view.Store(&v)
	close(r.done)
	s.notifyRun(v)
	if s.spec.Webhook != "" { // immutable after Create; safe to read
		m.sendWebhook(s, v)
	}
}

// SubmitRun starts an asynchronous run of up to cycles cycles on the
// session and returns immediately with the queued run's view. The run
// executes even if the caller goes away; read its progress with GetRun
// or subscribe to the session's event stream for the terminal "run"
// event.
func (m *Manager) SubmitRun(ctx context.Context, id string, cycles uint64) (RunView, error) {
	r, err := m.submitRun(ctx, id, cycles)
	if err != nil {
		return RunView{}, err
	}
	return *r.view.Load(), nil
}

// GetRun reports one run of a session. Runs are retained after
// completion (bounded per session; the oldest finished runs are evicted
// first), so results stay pollable.
func (m *Manager) GetRun(id, rid string) (RunView, error) {
	s, ok := m.lookup(id)
	if !ok {
		return RunView{}, fmt.Errorf("%w: %q", ErrNotFound, id)
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	for _, r := range s.runs {
		if v := r.view.Load(); v.ID == rid {
			return *v, nil
		}
	}
	return RunView{}, fmt.Errorf("%w: run %q of session %q", ErrNotFound, rid, id)
}

// Runs lists a session's retained runs in submission order.
func (m *Manager) Runs(id string) ([]RunView, error) {
	s, ok := m.lookup(id)
	if !ok {
		return nil, fmt.Errorf("%w: %q", ErrNotFound, id)
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make([]RunView, 0, len(s.runs))
	for _, r := range s.runs {
		out = append(out, *r.view.Load())
	}
	return out, nil
}

// addRunLocked lists an admitted run under a fresh per-session id ("r1",
// "r2", ...) with v as its first view, and evicts the oldest finished run
// beyond the retention bound. Caller holds s.mu.
func (s *Session) addRunLocked(r *run, v RunView) {
	s.runSeq++
	v.ID = fmt.Sprintf("r%d", s.runSeq)
	r.view.Store(&v)
	s.runs = append(s.runs, r)
	if len(s.runs) <= maxRunsRetained {
		return
	}
	for i, old := range s.runs {
		if st := old.view.Load().Status; st == RunDone || st == RunFailed {
			s.runs = append(s.runs[:i], s.runs[i+1:]...)
			return
		}
	}
}

// subscribeRuns registers a watcher channel for the session's run-complete
// events, or fails with errTooManyWatchers once maxWatchers are
// registered. The channel is buffered; a watcher that falls behind misses
// events rather than blocking completion (SSE clients resynchronize by
// polling GetRun).
func (s *Session) subscribeRuns() (chan RunView, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if len(s.watchers) >= maxWatchers {
		return nil, fmt.Errorf("%w: %d open on session %s", errTooManyWatchers, maxWatchers, s.id)
	}
	if s.watchers == nil {
		s.watchers = map[chan RunView]struct{}{}
	}
	c := make(chan RunView, 8)
	s.watchers[c] = struct{}{}
	return c, nil
}

func (s *Session) unsubscribeRuns(c chan RunView) {
	s.mu.Lock()
	delete(s.watchers, c)
	s.mu.Unlock()
}

// notifyRun fans a terminal run view out to the session's watchers.
func (s *Session) notifyRun(v RunView) {
	s.mu.Lock()
	defer s.mu.Unlock()
	for c := range s.watchers {
		select {
		case c <- v:
		default: // slow watcher: drop rather than block completion
		}
	}
}
