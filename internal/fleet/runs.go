package fleet

import (
	"context"
	"fmt"
	"sync"
	"time"
)

// This file is the async runs resource: a run is a first-class object
// with an id, a status, and a result that outlives the request that
// submitted it. SubmitRun returns as soon as the run is admitted to the
// session's queue (backpressure errors still arrive synchronously);
// clients poll GetRun or watch the session's SSE stream for the
// run-complete event. The synchronous Manager.Run is a thin wrapper that
// submits and waits — one execution path for both API shapes.

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
// are never evicted.
const maxRunsRetained = 32

// run is one asynchronous run-cycles operation. The channel closes at
// completion; everything behind mu is the mutable status snapshot that
// GetRun serves.
type run struct {
	id      string
	session string
	cycles  uint64
	done    chan struct{}

	mu        sync.Mutex
	status    RunStatus
	res       RunResult
	err       error
	submitted time.Time
	finished  time.Time
}

func (r *run) setRunning() {
	r.mu.Lock()
	if r.status == RunQueued {
		r.status = RunRunning
	}
	r.mu.Unlock()
}

func (r *run) finish(res RunResult, err error, at time.Time) {
	r.mu.Lock()
	if err != nil {
		r.status = RunFailed
		r.err = err
	} else {
		r.status = RunDone
		r.res = res
	}
	r.finished = at
	r.mu.Unlock()
	close(r.done)
}

func (r *run) finishedLocked() bool {
	return r.status == RunDone || r.status == RunFailed
}

// view assembles the wire representation under the run's lock.
func (r *run) view() RunView {
	r.mu.Lock()
	defer r.mu.Unlock()
	v := RunView{
		ID:        r.id,
		Session:   r.session,
		Cycles:    r.cycles,
		Status:    r.status,
		Submitted: r.submitted,
	}
	switch r.status {
	case RunDone:
		res := r.res
		v.Result = &res
		v.Finished = &r.finished
	case RunFailed:
		v.Error = r.err.Error()
		v.Finished = &r.finished
	}
	return v
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
// and ErrOverloaded surface here, never inside a queued run.
func (m *Manager) submitRun(ctx context.Context, id string, cycles uint64) (*run, error) {
	s, ok := m.lookup(id)
	if !ok {
		return nil, fmt.Errorf("%w: %q", ErrNotFound, id)
	}
	r := &run{
		session:   id,
		cycles:    cycles,
		done:      make(chan struct{}),
		status:    RunQueued,
		submitted: m.cfg.now(),
	}
	// The waiter registration must precede admission and happen under the
	// manager lock, mirroring submitAsync's opsWG accounting: Drain flips
	// draining under the same lock before it waits on runWG, so once it
	// begins waiting no new Add can slip in behind it — an Add after
	// enqueueing would race runWG.Add against runWG.Wait (the op can
	// finish, and opsWG.Wait return, before the submitter resumes) and
	// let Drain miss the waiter. Registered-then-rejected admissions just
	// Done the registration.
	m.mu.Lock()
	if m.draining {
		m.mu.Unlock()
		m.counters.rejectedDrain.Add(1)
		return nil, ErrDraining
	}
	m.runWG.Add(1)
	m.mu.Unlock()
	o, err := m.submitAsync(detach(ctx), id, opRun, func(sys *system) (any, error) {
		r.setRunning()
		before := sys.Machine.Cycle()
		sys.Machine.Run(cycles)
		ran := sys.Machine.Cycle() - before
		m.counters.cycles.Add(ran)
		return RunResult{Ran: ran, Cycle: sys.Machine.Cycle(), Halted: sys.Machine.Halted()}, nil
	})
	if err != nil {
		m.runWG.Done()
		return nil, err
	}
	s.addRun(r)
	m.counters.runsSubmitted.Add(1)
	// The waiter owns completion: it flips the run's terminal status,
	// fans the view out to the session's SSE watchers, and delivers the
	// session's webhook if one is configured. It always ends — the worker
	// pool always delivers exactly one result per accepted op, even
	// during drain, and webhook retries abort on the drain signal. runWG
	// is what Drain waits on after the operations themselves.
	go func() {
		defer m.runWG.Done()
		res := <-o.done
		rr, _ := res.value.(RunResult)
		r.finish(rr, res.err, m.cfg.now())
		v := r.view()
		s.notifyRun(v)
		if s.spec.Webhook != "" { // immutable after Create; safe to read
			m.deliverWebhook(s.spec.Webhook, v)
		}
	}()
	return r, nil
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
	return r.view(), nil
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
	r := s.runs[rid]
	s.mu.Unlock()
	if r == nil {
		return RunView{}, fmt.Errorf("%w: run %q of session %q", ErrNotFound, rid, id)
	}
	return r.view(), nil
}

// Runs lists a session's retained runs in submission order.
func (m *Manager) Runs(id string) ([]RunView, error) {
	s, ok := m.lookup(id)
	if !ok {
		return nil, fmt.Errorf("%w: %q", ErrNotFound, id)
	}
	s.mu.Lock()
	runs := make([]*run, 0, len(s.runOrder))
	for _, rid := range s.runOrder {
		runs = append(runs, s.runs[rid])
	}
	s.mu.Unlock()
	out := make([]RunView, 0, len(runs))
	for _, r := range runs {
		out = append(out, r.view())
	}
	return out, nil
}

// addRun registers an admitted run under a fresh per-session id ("r1",
// "r2", ...) and evicts the oldest finished run beyond the retention
// bound.
func (s *Session) addRun(r *run) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.runSeq++
	r.id = fmt.Sprintf("r%d", s.runSeq)
	if s.runs == nil {
		s.runs = map[string]*run{}
	}
	s.runs[r.id] = r
	s.runOrder = append(s.runOrder, r.id)
	if len(s.runOrder) <= maxRunsRetained {
		return
	}
	for i, rid := range s.runOrder {
		old := s.runs[rid]
		old.mu.Lock()
		evictable := old.finishedLocked()
		old.mu.Unlock()
		if evictable {
			delete(s.runs, rid)
			s.runOrder = append(s.runOrder[:i], s.runOrder[i+1:]...)
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
