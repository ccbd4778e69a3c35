// Package fleet is the concurrent simulation service layer: a session
// manager that owns many independently simulated Dorado machines and runs
// them on a bounded worker pool, the first step from "simulator library"
// toward the production-scale service the ROADMAP aims at.
//
// The design follows the parallel-deployment argument of the related work
// (Schirmer's NOP papers): aggregate throughput comes from running many
// simple, independent machines behind a scheduler, not from making one
// machine faster. Each session is one Dorado built through the public
// dorado.New facade; the Manager serializes operations within a session
// (a machine is single-threaded by construction) while running different
// sessions in parallel, up to Config.Workers at a time.
//
// Concurrency model, in one paragraph: every session has a bounded FIFO of
// pending operations and a scheduled flag. Submitting an operation appends
// to the FIFO (rejecting with ErrOverloaded when full — backpressure is an
// error, never an unbounded queue) and, if the session is not already
// scheduled, places it on the run queue. Worker goroutines pop a session,
// execute exactly one operation — so a session cannot starve the pool —
// and re-enqueue the session if more work arrived meanwhile. The scheduled
// flag guarantees a session is owned by at most one worker, which is the
// whole per-session serialization argument: operation bodies touch the
// machine without any lock of their own.
//
// Idle sessions are evicted to reclaim memory: a janitor parks any session
// unused for Config.IdleAfter by serializing it through the machine's
// snapshot (internal/state) and dropping the live machine; the next
// operation transparently rebuilds the machine from the session's Spec and
// restores the snapshot. Drain stops admission and waits for every accepted
// operation to finish, then stops the workers — the graceful-shutdown path
// cmd/doradod runs on SIGTERM.
//
// With Config.Store set, parking is durable: snapshots land in a
// content-addressed on-disk store (internal/store) instead of memory, a
// graceful Drain parks every remaining live session into it, and a fresh
// Manager over the same directory lists the stored sessions as parked and
// revives each lazily on first touch — the restart-safe deployment shape.
// Any stored snapshot can also seed a brand-new session (CreateFrom), the
// fork-from-snapshot primitive behind microcode A/B experiments.
package fleet

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"log/slog"
	"runtime"
	"sync"
	"time"

	"dorado"
	"dorado/internal/store"
)

// Sentinel errors returned by Manager operations. Match with errors.Is;
// the HTTP server maps them onto status codes (429, 503, 404, 409).
var (
	// ErrOverloaded reports that a session's operation queue is full. The
	// caller should back off and retry; cmd/doradod returns 429.
	ErrOverloaded = errors.New("fleet: session queue full")
	// ErrDraining reports that the manager is shutting down and admits no
	// new operations; cmd/doradod returns 503.
	ErrDraining = errors.New("fleet: manager draining")
	// ErrNotFound reports an unknown or destroyed session id.
	ErrNotFound = errors.New("fleet: no such session")
	// ErrTooManySessions reports that Config.MaxSessions are already live.
	ErrTooManySessions = errors.New("fleet: session limit reached")
	// ErrNoMetrics reports a trace or obs read on a session created
	// without Spec.Metrics; cmd/doradod returns 409.
	ErrNoMetrics = errors.New("fleet: session has no metrics recorder")
	// ErrNoProfiler reports a profile read on a session created without
	// Spec.Profile; cmd/doradod returns 409.
	ErrNoProfiler = errors.New("fleet: session has no profiler")
	// ErrBusy reports a Park on a session that is scheduled or has pending
	// operations; the caller should let the queue empty and retry.
	// cmd/doradod returns 409.
	ErrBusy = errors.New("fleet: session busy")
	// ErrNoStore reports a durability operation (Park-to-disk listing,
	// CreateFrom) on a manager configured without Config.Store;
	// cmd/doradod returns 409.
	ErrNoStore = errors.New("fleet: no snapshot store configured")
)

// Config sizes a Manager. The zero value picks usable defaults.
type Config struct {
	// Workers is the number of worker goroutines executing session
	// operations — the cross-session parallelism bound. Default GOMAXPROCS.
	Workers int
	// MaxSessions bounds the number of sessions (live + parked).
	// Default 64.
	MaxSessions int
	// QueueDepth bounds each session's pending-operation FIFO; a full
	// queue rejects with ErrOverloaded. Default 8.
	QueueDepth int
	// IdleAfter parks sessions unused for this long (snapshot taken, live
	// machine released); the janitor looks every IdleAfter/4, at least
	// once a second. Zero disables eviction.
	IdleAfter time.Duration
	// Logger, when set, receives one structured debug record per completed
	// operation (session, op kind, queue-wait and service-time in µs, and
	// the request id when the submitting context carries one — see
	// RequestID). Nil disables operation logging; the latency histograms
	// are always recorded.
	Logger *slog.Logger
	// Store, when set, makes parked sessions durable: park writes the
	// snapshot into this content-addressed store as a recipe plus its
	// shared sections of 4 KiB or more (with the session's Spec as sidecar
	// metadata and a manifest entry),
	// New lists the store's sessions as parked, revival reassembles the
	// snapshot lazily on first touch, and Drain parks every remaining live
	// session before stopping — so a restart over the same store directory
	// resumes the fleet. Nil keeps parked snapshots in memory only (the
	// pre-store behavior).
	Store *store.Store
	// GCMaxAge is the store GC policy: an unreferenced snapshot must be
	// at least this old before a sweep reclaims it. Zero picks the
	// default (24h); negative reclaims unreferenced snapshots
	// immediately. Only meaningful with Store set.
	GCMaxAge time.Duration
	// GCEvery is the period of the manager's background store-GC sweeper.
	// Zero picks the default (1h); negative disables periodic sweeps
	// (on-demand GCStore still works). Only meaningful with Store set.
	GCEvery time.Duration

	// WebhookAllow is the origin allowlist for Spec.Webhook URLs, entries
	// like "http://127.0.0.1:9000" or "https://hooks.example.com" (one
	// entry "*" allows any origin — development only). Empty rejects
	// every webhook: outbound calls to operator-unapproved hosts are an
	// SSRF hazard, so delivery is strictly opt-in.
	WebhookAllow []string

	// Test hooks. now is the clock (nil means time.Now); sweepEvery
	// replaces the janitor period and webhookBackoff the first webhook
	// retry delay (zero means the defaults).
	now            func() time.Time
	sweepEvery     time.Duration
	webhookBackoff time.Duration
}

func (c Config) withDefaults() Config {
	if c.Workers <= 0 {
		c.Workers = runtime.GOMAXPROCS(0)
	}
	if c.MaxSessions <= 0 {
		c.MaxSessions = 64
	}
	if c.QueueDepth <= 0 {
		c.QueueDepth = 8
	}
	if c.IdleAfter > 0 && c.sweepEvery <= 0 {
		c.sweepEvery = max(c.IdleAfter/4, time.Second)
	}
	if c.GCMaxAge == 0 {
		c.GCMaxAge = 24 * time.Hour
	}
	if c.GCEvery == 0 {
		c.GCEvery = time.Hour
	}
	if c.webhookBackoff <= 0 {
		c.webhookBackoff = webhookBackoff
	}
	if c.now == nil {
		c.now = time.Now
	}
	return c
}

// Manager owns a pool of simulated machines and the worker pool that runs
// them. Create one with New; it is safe for concurrent use.
type Manager struct {
	cfg Config

	mu       sync.Mutex
	sessions map[string]*Session
	nextID   uint64
	draining bool

	// runq carries sessions with pending work to the workers. It is a
	// slice guarded by runMu, not a bounded channel: a destroyed session
	// stays scheduled until its queued operations finish, so the number of
	// scheduled sessions can briefly exceed MaxSessions — a fixed-capacity
	// channel could fill and deadlock the workers (the only consumers) on
	// the re-enqueue send. The queue is still naturally bounded: a session
	// appears at most once (the scheduled flag).
	runMu    sync.Mutex
	runCond  *sync.Cond
	runq     []*Session
	stopping bool // set by Drain once all operations finished; workers exit

	opsWG sync.WaitGroup // accepted-but-unfinished operations
	// hookWG tracks webhook deliveries (webhook.go). Only a completion
	// starts one, before its operation's opsWG.Done, so Drain waits for
	// them after the operations; their attempts and backoff abort on the
	// drain signal, so shutdown stays bounded.
	hookWG   sync.WaitGroup
	workerWG sync.WaitGroup
	stopOnce sync.Once
	janitorC chan struct{} // closed to stop the janitor

	// drainCtx is canceled the moment Drain begins — before the wait for
	// in-flight operations — so long-lived observers (the SSE event
	// streams) and webhook attempts in flight end promptly instead of
	// holding shutdown hostage.
	drainCtx   context.Context
	startDrain context.CancelFunc

	counters counters
	lat      *opHistograms
}

// New builds a Manager and starts its workers (and, when eviction is
// configured, its janitor). With Config.Store set it also adopts the
// store's manifest: every recorded session is registered as parked —
// no machine built, no blob read — and revives lazily on first touch.
// Stop it with Drain.
func New(cfg Config) *Manager {
	cfg = cfg.withDefaults()
	m := &Manager{
		cfg:      cfg,
		sessions: map[string]*Session{},
		janitorC: make(chan struct{}),
		lat:      newOpHistograms(),
	}
	m.drainCtx, m.startDrain = context.WithCancel(context.Background())
	m.runCond = sync.NewCond(&m.runMu)
	if cfg.Store != nil {
		m.adoptStore()
	}
	m.workerWG.Add(cfg.Workers)
	for i := 0; i < cfg.Workers; i++ {
		go m.worker()
	}
	if cfg.IdleAfter > 0 {
		go m.janitor()
	}
	if cfg.Store != nil && cfg.GCEvery > 0 {
		go m.gcJanitor()
	}
	return m
}

// adoptStore registers every manifest session as parked-on-disk, listing
// the counters its entry stored at park, and advances the id counter past
// the restored sequence numbers. An entry whose Spec no longer decodes is
// skipped (and logged) rather than poisoning startup; its blob stays in
// the store untouched. An entry without counters (written before entries
// carried them) or with unreadable ones lists only its cycle.
func (m *Manager) adoptStore() {
	for _, e := range m.cfg.Store.Sessions() {
		var spec Spec
		if err := json.Unmarshal(e.Spec, &spec); err != nil {
			if m.cfg.Logger != nil {
				m.cfg.Logger.Warn("fleet: skipping stored session with undecodable spec",
					"session", e.ID, "err", err)
			}
			continue
		}
		now := m.cfg.now()
		s := &Session{
			id:         e.ID,
			seq:        e.Seq,
			spec:       spec,
			birth:      now,
			lastUsed:   now,
			parkedHash: e.Hash,
		}
		v := view{Stats: dorado.Stats{Cycles: e.Cycle}}
		if len(e.View) > 0 {
			if err := json.Unmarshal(e.View, &v); err != nil {
				v = view{Stats: dorado.Stats{Cycles: e.Cycle}}
				if m.cfg.Logger != nil {
					m.cfg.Logger.Warn("fleet: stored session lists its cycle only (undecodable counters)",
						"session", e.ID, "err", err)
				}
			}
		}
		v.res = resParked
		s.published.Store(&v)
		m.sessions[s.id] = s
		if e.Seq > m.nextID {
			m.nextID = e.Seq
		}
		m.counters.adopted.Add(1)
	}
}

// Workers returns the configured worker-pool size.
func (m *Manager) Workers() int { return m.cfg.Workers }

// enqueue places a scheduled session on the run queue and wakes a worker.
// It never blocks, whatever the queue length — the property the deadlock
// freedom of the pool rests on.
func (m *Manager) enqueue(s *Session) {
	m.runMu.Lock()
	m.runq = append(m.runq, s)
	m.runMu.Unlock()
	m.runCond.Signal()
}

// dequeue blocks until a session is runnable and pops it, or returns nil
// when the manager is stopping and the queue has fully drained.
func (m *Manager) dequeue() *Session {
	m.runMu.Lock()
	defer m.runMu.Unlock()
	for len(m.runq) == 0 {
		if m.stopping {
			return nil
		}
		m.runCond.Wait()
	}
	s := m.runq[0]
	copy(m.runq, m.runq[1:])
	m.runq[len(m.runq)-1] = nil
	m.runq = m.runq[:len(m.runq)-1]
	return s
}

// worker executes one queued operation per scheduling round, then yields
// the session back to the runnable queue if more work arrived. The
// scheduled flag (owned by the session lock) guarantees at most one worker
// holds a session, so operation bodies run the machine without locks.
func (m *Manager) worker() {
	defer m.workerWG.Done()
	for {
		s := m.dequeue()
		if s == nil {
			return
		}
		// The pickup instant splits queue wait from service time, so a
		// revive below is service, not waiting.
		picked := time.Now()
		var res opResult
		s.mu.Lock()
		op := s.pending[0]
		copy(s.pending, s.pending[1:])
		s.pending = s.pending[:len(s.pending)-1]
		if s.published.Load().res == resParked {
			// Revive before unlocking: the rebuild mutates s.sys, and a
			// concurrent janitor sweep must observe either parked or live,
			// never a half-built machine. The same path serves in-memory
			// parks and store-backed parks (including sessions adopted
			// from a previous process's store) — see reviveLocked. A
			// failed revive is not retried.
			res.revived = s.reviveLocked(m)
		}
		sys, reviveErr := s.sys, s.reviveErr
		s.mu.Unlock()

		res.queue = picked.Sub(op.enqueued)
		ran := false
		switch {
		case reviveErr != nil:
			res.err = reviveErr
		case op.ctx.Err() != nil:
			// The submitter gave up while the operation sat in the queue;
			// skip the body rather than burn service time nobody reads.
			res.err = op.ctx.Err()
		default:
			res.value, res.err = op.fn(sys)
			res.service = time.Since(picked)
			ran = true
		}
		// Account the operation here, not in submit: a canceled submitter
		// has already returned, and success/latency bookkeeping must not
		// depend on anyone reading the result.
		m.lat.observe(op.kind, res.queue, res.service, ran)
		if res.err == nil {
			m.counters.ops[op.kind].Add(1)
		}
		m.logOp(s.id, op, res)

		// Publish, then release or re-enqueue, before completing the
		// operation: whoever sees it complete (Run returning, a run
		// reading done) must find its counters published and the session
		// idle, or a Park issued at once answers ErrBusy and a janitor
		// Sweep skips it.
		s.mu.Lock()
		if res.err == nil {
			s.publish(resLive, s.sys, 1) // s.sys: a restore installs a new machine
		}
		if len(s.pending) > 0 {
			s.mu.Unlock()
			m.enqueue(s)
		} else {
			s.scheduled = false
			s.mu.Unlock()
		}
		op.complete(s, res)
		// Done only after the re-enqueue decision and the completion:
		// Drain stops the workers once this counter hits zero, and pending
		// work implies a nonzero count, so no enqueue above can race the
		// shutdown, and no webhook delivery can start behind Drain's wait.
		m.opsWG.Done()
	}
}

// logOp emits the per-operation structured record (see Config.Logger).
func (m *Manager) logOp(id string, op *op, res opResult) {
	if m.cfg.Logger == nil {
		return
	}
	attrs := []slog.Attr{
		slog.String("session", id),
		slog.String("op", op.kind.String()),
		slog.Int64("queue_us", res.queue.Microseconds()),
		slog.Int64("service_us", res.service.Microseconds()),
	}
	if req := RequestID(op.ctx); req != "" {
		attrs = append(attrs, slog.String("req", req))
	}
	if res.err != nil {
		attrs = append(attrs, slog.String("err", res.err.Error()))
	}
	m.cfg.Logger.LogAttrs(op.ctx, slog.LevelDebug, "fleet op", attrs...)
}

// submitAsync queues o on the session without waiting for it. It
// enforces, in order: drain state, session existence, and queue bound —
// the admission decision is synchronous even when the result will be
// consumed asynchronously (the runs resource), so backpressure errors
// still reach the submitter immediately. o.ctx rides on the operation:
// the worker skips the body if it is canceled at pickup, and the
// operation log records its request id (see RequestID). register, when
// not nil, runs under the session lock once o is admitted, before any
// worker can pick o up.
func (m *Manager) submitAsync(id string, o *op, register func(s *Session)) error {
	m.mu.Lock()
	if m.draining {
		m.mu.Unlock()
		m.counters.rejectedDrain.Add(1)
		return ErrDraining
	}
	s := m.sessions[id]
	if s == nil {
		m.mu.Unlock()
		return fmt.Errorf("%w: %q", ErrNotFound, id)
	}
	// Count the operation before releasing the lock: Drain flips draining
	// under the same lock, so once it begins waiting, no new Add can slip
	// in behind it.
	m.opsWG.Add(1)
	m.mu.Unlock()

	o.enqueued = time.Now()
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		m.opsWG.Done()
		return fmt.Errorf("%w: %q", ErrNotFound, id)
	}
	if len(s.pending) >= m.cfg.QueueDepth {
		s.mu.Unlock()
		m.opsWG.Done()
		m.counters.rejectedLoad.Add(1)
		return fmt.Errorf("%w: session %q has %d operations pending", ErrOverloaded, id, m.cfg.QueueDepth)
	}
	if register != nil {
		register(s)
	}
	s.pending = append(s.pending, o)
	s.lastUsed = m.cfg.now()
	enqueue := !s.scheduled
	if enqueue {
		s.scheduled = true
	}
	s.mu.Unlock()
	if enqueue {
		m.enqueue(s)
	}
	return nil
}

// submit queues fn on the session and waits for its result. ctx scopes
// the wait: if it is canceled before a worker runs the operation, the
// body is skipped and submit returns ctx's error.
func (m *Manager) submit(ctx context.Context, id string, kind opKind, fn func(sys *system) (any, error)) (opResult, error) {
	// done has room for the one result, so a departed caller never blocks
	// the worker; the worker also sees the canceled ctx and skips the body
	// if it has not started yet.
	done := make(chan opResult, 1)
	o := &op{ctx: ctx, kind: kind, fn: fn, complete: func(_ *Session, res opResult) { done <- res }}
	if err := m.submitAsync(id, o, nil); err != nil {
		return opResult{}, err
	}
	select {
	case res := <-done:
		return res, res.err
	case <-ctx.Done():
		return opResult{}, ctx.Err()
	}
}

// janitor periodically parks idle sessions.
func (m *Manager) janitor() {
	t := time.NewTicker(m.cfg.sweepEvery)
	defer t.Stop()
	for {
		select {
		case <-m.janitorC:
			return
		case <-t.C:
			m.Sweep()
		}
	}
}

// gcJanitor periodically sweeps the durable store for unreferenced
// snapshots (Config.GCEvery / Config.GCMaxAge). It shares the janitor's
// stop channel, so Drain ends it.
func (m *Manager) gcJanitor() {
	t := time.NewTicker(m.cfg.GCEvery)
	defer t.Stop()
	for {
		select {
		case <-m.janitorC:
			return
		case <-t.C:
			if _, err := m.GCStore(-1); err != nil && m.cfg.Logger != nil {
				m.cfg.Logger.Warn("fleet: store GC sweep failed", "err", err)
			}
		}
	}
}

// GCStore runs one GC sweep of the durable store, reclaiming every
// snapshot (its recipe and spec sidecar, plus the sections no surviving
// recipe names) that no manifest entry references, no in-flight fork or
// park has pinned, and that is older than the age threshold. A negative maxAge uses the configured
// Config.GCMaxAge; zero reclaims every unreferenced snapshot immediately.
// The background sweeper calls it on a timer; POST /v1/store/gc and tests
// call it on demand. ErrNoStore without Config.Store.
func (m *Manager) GCStore(maxAge time.Duration) (store.SweepResult, error) {
	if m.cfg.Store == nil {
		return store.SweepResult{}, ErrNoStore
	}
	if maxAge < 0 {
		maxAge = m.cfg.GCMaxAge
	}
	if maxAge < 0 {
		maxAge = 0
	}
	return m.cfg.Store.Sweep(store.GCPolicy{MaxAge: maxAge})
}

// StoreStats inventories the durable store — what GET /v1/store serves.
// ErrNoStore without Config.Store.
func (m *Manager) StoreStats() (store.Stats, error) {
	if m.cfg.Store == nil {
		return store.Stats{}, ErrNoStore
	}
	return m.cfg.Store.Stats(), nil
}

// Sweep parks every session idle for at least Config.IdleAfter and returns
// how many it parked. The janitor calls it on a timer; it is exported so
// tests and operators can force a pass.
func (m *Manager) Sweep() int {
	if m.cfg.IdleAfter <= 0 {
		return 0
	}
	cutoff := m.cfg.now().Add(-m.cfg.IdleAfter)
	parked := 0
	for _, s := range m.table() {
		if s.park(m, cutoff) {
			m.counters.evicted.Add(1)
			parked++
		}
	}
	return parked
}

// Drain gracefully shuts the manager down: new operations are rejected
// with ErrDraining, every already-accepted operation runs to completion,
// then the workers and janitor stop. With Config.Store set, every session
// still live after the workers stop is parked into the store, so a
// subsequent process over the same directory resumes the whole fleet. If
// ctx expires first, Drain returns ctx.Err() with the workers still
// running (call again to finish). Drain is idempotent.
func (m *Manager) Drain(ctx context.Context) error {
	m.mu.Lock()
	m.draining = true
	m.mu.Unlock()
	// Wake long-lived observers (SSE streams) first: they are not
	// operations, so the opsWG wait below neither sees nor needs them, but
	// the HTTP server's shutdown does — a stream that lingered would hold
	// the listener open past the drain.
	m.startDrain()

	done := make(chan struct{})
	go func() {
		m.opsWG.Wait()
		// Then the webhook deliveries the completions started: the drain
		// signal above cuts short each one's HTTP attempt and backoff, so
		// this wait is short.
		m.hookWG.Wait()
		close(done)
	}()
	select {
	case <-ctx.Done():
		return ctx.Err()
	case <-done:
	}
	m.stopOnce.Do(func() {
		m.runMu.Lock()
		m.stopping = true
		m.runMu.Unlock()
		m.runCond.Broadcast()
		m.workerWG.Wait()
		close(m.janitorC)
		if m.cfg.Store != nil {
			// The workers are gone and admission is closed, so every
			// session is idle; park them all while the process still can.
			cutoff := m.cfg.now().Add(time.Nanosecond)
			for _, s := range m.table() {
				s.park(m, cutoff)
			}
		}
	})
	return nil
}

// DrainSignal returns a channel closed the moment Drain begins. Long-
// lived observers (the SSE event streams) select on it so a graceful
// shutdown terminates them promptly.
func (m *Manager) DrainSignal() <-chan struct{} { return m.drainCtx.Done() }
