package fleet

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"dorado"
	"dorado/internal/masm"
	"dorado/internal/obs"
	"dorado/internal/obs/prof"
	"dorado/internal/store"
)

// system aliases the facade's System so operation bodies read naturally.
type system = dorado.System

// Spec describes the machine a session simulates. It is retained for the
// session's lifetime: reviving a parked session rebuilds the machine from
// the Spec and restores the parked snapshot onto it.
type Spec struct {
	// Language selects a byte-code emulator by name ("mesa", "bcpl",
	// "lisp", "smalltalk", case-insensitive); "" or "none" builds a bare
	// microcode-level machine.
	Language string
	// Machine is the machine configuration (zero = the Dorado as built).
	Machine dorado.Config
	// Metrics attaches a cycle-level observability recorder to the
	// session's machine (dorado.WithMetrics); it costs a few percent of
	// throughput and enables the per-session wakeup/latency histograms,
	// the Chrome-trace export (GET /v1/sessions/{id}/trace), and the obs
	// summary (GET /v1/sessions/{id}/obs). Parking a session serializes
	// only machine state: a revived session runs with a fresh recorder,
	// so trace data covers the span since revival.
	Metrics bool
	// Profile attaches a microarchitectural profiler (dorado.WithProfiler):
	// every cycle is charged to its microaddress and superblock executions
	// record their exit reason. Enables GET /v1/sessions/{id}/profile and
	// the session's dorado_prof_* metric families. Like the recorder, the
	// profiler is recreated fresh at revival: a revived session's profile
	// covers the span since then.
	Profile bool
	// Devices mounts I/O controllers on the session's machine (see
	// DeviceSpec for the catalog). Devices are part of the Spec, so a
	// revived session gets the same controllers back before its snapshot —
	// which includes their mutable state — is restored.
	Devices []DeviceSpec
	// Webhook, when set, is a URL every terminal run view is POSTed to
	// (JSON RunView body, bounded retry with exponential backoff) — the
	// push alternative to polling GetRun or holding an SSE stream. The
	// URL's origin must be in the manager's Config.WebhookAllow
	// (doradod -webhook-allow); Create rejects it otherwise, and
	// delivery re-checks, so a sidecar Spec restored under a narrower
	// allowlist is dead-lettered instead of called.
	Webhook string
}

func (sp Spec) build() (*dorado.System, error) {
	lang, err := parseLanguage(sp.Language)
	if err != nil {
		return nil, err
	}
	opts := []dorado.Option{dorado.WithConfig(sp.Machine)}
	if lang != dorado.None {
		opts = append(opts, dorado.WithLanguage(lang))
	}
	if sp.Metrics {
		opts = append(opts, dorado.WithMetrics(dorado.NewMetrics()))
	}
	if sp.Profile {
		opts = append(opts, dorado.WithProfiler(dorado.NewProfiler()))
	}
	sys, err := dorado.New(opts...)
	if err != nil {
		return nil, err
	}
	// Devices attach after New: the fast-I/O controllers need the built
	// machine's memory system, which no functional option can reach.
	for _, ds := range sp.Devices {
		if err := ds.attach(sys.Machine); err != nil {
			return nil, err
		}
	}
	return sys, nil
}

// restore builds the Spec's machine and restores data into it: the one
// path revival, forks and PUT .../snapshot share. A refused snapshot
// leaves nothing behind, since the machine it went into is discarded.
func (sp Spec) restore(data []byte) (*dorado.System, error) {
	sys, err := sp.build()
	if err != nil {
		return nil, err
	}
	if err := sys.Machine.Restore(data); err != nil {
		return nil, err
	}
	return sys, nil
}

// op is one queued unit of work. ctx is the submitter's context: the
// worker skips the body if it is already canceled at pickup, and the
// operation log reads its request id. complete receives the result: the
// worker calls it exactly once, after it has published the session's view
// and released or re-enqueued the session, so whoever it tells finds the
// session idle. It must not block. enqueued stamps admission for the
// queue-wait histogram.
type op struct {
	ctx      context.Context
	kind     opKind
	fn       func(sys *system) (any, error)
	complete func(s *Session, res opResult)
	enqueued time.Time
}

type opResult struct {
	value   any
	err     error
	revived bool          // the pickup rebuilt a parked session for this op
	queue   time.Duration // admission → worker pickup
	service time.Duration // fn execution (zero when the body was skipped)
}

// opKind indexes the manager's per-operation counters and latency
// histograms.
type opKind int

// Operation kinds, in metrics-export order.
const (
	opRun opKind = iota
	opMicrocode
	opBoot
	opState
	opSnapshot
	opRestore
	opTrace
	opObs
	opProfile
	numOpKinds
)

func (k opKind) String() string {
	return [...]string{"run", "microcode", "boot", "state", "snapshot", "restore", "trace", "obs", "profile"}[k]
}

// Session is one simulated machine owned by a Manager. All fields behind
// mu are protected by it; published is the one value readers load without
// the lock (see view).
type Session struct {
	id    string
	seq   uint64 // creation order, for stable metric export
	spec  Spec
	birth time.Time

	mu        sync.Mutex
	pending   []*op
	scheduled bool
	closed    bool
	lastUsed  time.Time
	sys       *dorado.System
	parked    []byte // in-memory snapshot of an evicted session; nil while live
	// parkedHash is the store address of the parked snapshot when the
	// manager has a Config.Store: park writes the blob and keeps only the
	// hash, and sessions adopted from a previous process's manifest start
	// with nothing but it. Revival prefers the in-memory bytes and falls
	// back to fetching the hash (reviveLocked).
	parkedHash string
	reviveErr  error // sticky failure rebuilding a parked session
	// symbols names microaddresses in profiles for sessions whose microcode
	// arrived via LoadMicrocode (emulator sessions resolve through the
	// built-in program's symbols instead). Survives park/revive — symbols
	// describe the microstore image, which the snapshot restores.
	symbols *prof.SymbolTable

	// Async-run bookkeeping (runs.go): the retained runs in submission
	// order, the SSE watchers notified on run completion, and how many
	// terminal views the webhook holds (webhook.go). Guarded by mu.
	runSeq   uint64
	runs     []*run
	watchers map[chan RunView]struct{}
	hooks    int

	published atomic.Pointer[view]
}

// view is what a session publishes to the readers that take no session
// lock — the listing, /metrics, /healthz, event streams, error envelopes
// and the manifest: the machine's counters as of its last completed
// operation, how many operations have completed, and where the session
// lives. A view is never changed; whoever owns the session builds the
// next one and replaces it (publish), so a reader's one load sees one
// consistent state. A park stores the exported fields in the session's
// manifest entry; an adopted session is parked, so res is not stored.
type view struct {
	Stats  dorado.Stats                  `json:"stats"`
	Halted bool                          `json:"halted"`
	Trans  dorado.TranslationStats       `json:"translation"`
	Exits  [dorado.NumExitReasons]uint64 `json:"exits"` // superblock exits (Spec.Profile)
	Ops    uint64                        `json:"ops"`
	res    residency
}

// residency is where a session's state lives.
type residency uint8

const (
	resLive   residency = iota // a built machine
	resParked                  // a snapshot only, in memory or in the store
	resFailed                  // a snapshot whose revive failed (sticky)
)

// String names the residency as the error envelope's session_state does.
func (r residency) String() string {
	return [...]string{"live", "parked", "failed"}[r]
}

// publish replaces the session's view with one at residency res, counting
// completed more operations and, when sys is not nil, carrying its
// machine's counters. Callers hold s.mu, or have not yet put the session
// in the table, so views are replaced one at a time; readers take no
// lock.
func (s *Session) publish(res residency, sys *dorado.System, completed uint64) {
	var v view
	if old := s.published.Load(); old != nil {
		v = *old
	}
	v.res = res
	v.Ops += completed
	if sys != nil {
		v.Stats = sys.Machine.Stats()
		v.Halted = sys.Machine.Halted()
		v.Trans = sys.Machine.TranslationStats()
		if sys.Profiler != nil {
			v.Exits = sys.Profiler.ExitCounts()
		}
	}
	s.published.Store(&v)
}

// ID returns the session's identifier ("s1", "s2", ...).
func (s *Session) ID() string { return s.id }

// park snapshots and releases the machine if the session has been idle
// since before cutoff. Safe against the workers: a scheduled session (one
// a worker owns or will own) is never parked. With a store configured the
// snapshot is persisted and only its hash retained; if persistence fails
// the session still parks, falling back to the in-memory bytes so no
// state is lost (only durability).
func (s *Session) park(m *Manager, cutoff time.Time) bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed || s.scheduled || len(s.pending) > 0 || s.sys == nil || !s.lastUsed.Before(cutoff) {
		return false
	}
	snap := s.sys.Machine.Snapshot()
	s.sys = nil
	s.parked = snap
	s.parkedHash = ""
	if m.cfg.Store != nil {
		hash, err := m.persist(s, snap)
		if err == nil {
			s.parkedHash = hash
			s.parked = nil // the blob is durable; don't hold a second copy
		} else if m.cfg.Logger != nil {
			m.cfg.Logger.Warn("fleet: parking session in memory only (store write failed)",
				"session", s.id, "err", err)
		}
	}
	s.publish(resParked, nil, 0)
	return true
}

// persist writes a parked session's snapshot into the durable store:
// snapshot first, then its Spec sidecar, then the manifest entry, which
// carries the published view's counters — in that order, so the manifest
// never names a snapshot that is not already durable. The store keeps a
// recipe per snapshot, carrying its sections under 4 KiB inline, and
// shares the larger sections, so a park writes the recipe and only the
// large sections that changed. The hash is pinned for the
// whole sequence: between the snapshot write and the manifest entry the
// snapshot is unreferenced, and the pin is what keeps a concurrent GC
// sweep from reclaiming it in that window. The pinned hash is handed to
// the store, so a park hashes the whole document once.
// Caller holds s.mu.
func (m *Manager) persist(s *Session, snap []byte) (string, error) {
	specJSON, err := json.Marshal(s.spec)
	if err != nil {
		return "", err
	}
	v := s.published.Load()
	viewJSON, err := json.Marshal(v)
	if err != nil {
		return "", err
	}
	hash := store.Hash(snap)
	unpin := m.cfg.Store.Pin(hash)
	defer unpin()
	if _, err := m.cfg.Store.PutSnapshotHashed(hash, snap); err != nil {
		return "", err
	}
	if err := m.cfg.Store.PutMeta(hash, specJSON); err != nil {
		return "", err
	}
	err = m.cfg.Store.SaveSession(store.Entry{
		ID:       s.id,
		Seq:      s.seq,
		Spec:     specJSON,
		Hash:     hash,
		Cycle:    v.Stats.Cycles,
		View:     viewJSON,
		ParkedAt: m.cfg.now(),
	})
	if err != nil {
		return "", err
	}
	m.counters.persisted.Add(1)
	return hash, nil
}

// reviveLocked rebuilds a parked session's machine and restores its
// snapshot — from the in-memory bytes when present, else from the store
// blob named by parkedHash (a store-backed park, or a session adopted
// from a previous process's manifest). Both shapes share one path,
// Spec.restore, so a from-disk revival cannot drift from an in-memory
// one. Caller holds s.mu. A failure is sticky: the session keeps
// reporting it rather than silently restarting from scratch. It reports
// whether the session is live again.
func (s *Session) reviveLocked(m *Manager) bool {
	data := s.parked
	var err error
	if data == nil && s.parkedHash != "" {
		data, err = m.cfg.Store.Get(s.parkedHash)
	}
	var sys *dorado.System
	if err == nil {
		sys, err = s.spec.restore(data)
	}
	if err != nil {
		s.reviveErr = fmt.Errorf("fleet: reviving session %s: %w", s.id, err)
		s.publish(resFailed, nil, 0)
		return false
	}
	s.sys = sys
	s.parked = nil
	s.publish(resLive, sys, 0)
	m.counters.revived.Add(1)
	return true
}

// Create builds a new session from spec and returns its id. A
// Spec.Webhook whose origin is not in Config.WebhookAllow is rejected
// up front (as a bad_request over HTTP) — better at create time than a
// dead-letter per run.
func (m *Manager) Create(spec Spec) (string, error) {
	if spec.Webhook != "" {
		if err := m.checkWebhook(spec.Webhook); err != nil {
			return "", fmt.Errorf("%w: %w", errBadInput, err)
		}
	}
	sys, err := spec.build()
	if err != nil {
		return "", err
	}
	spec.Language = sys.Language.String() // canonical name for listings and revival
	s, err := m.register(spec, sys)
	if err != nil {
		return "", err
	}
	m.counters.created.Add(1)
	return s.id, nil
}

// CreateFrom builds a new session seeded from a stored snapshot: the
// snapshot's Spec sidecar describes the machine, the reassembled snapshot
// restores its state. This is the fork primitive — any number of sessions
// can branch from one stored snapshot (say, to A/B different microcode
// against identical machine state). Requires Config.Store (ErrNoStore
// otherwise); an unknown hash reports store.ErrNoBlob.
func (m *Manager) CreateFrom(hash string) (string, error) {
	if m.cfg.Store == nil {
		return "", ErrNoStore
	}
	// Pin the donor for the whole read: the hash may be unreferenced
	// (Destroy keeps snapshots as fork fodder), and the pin is the
	// guarantee a concurrent GC sweep cannot delete it between Meta and
	// Get.
	unpin := m.cfg.Store.Pin(hash)
	defer unpin()
	meta, err := m.cfg.Store.Meta(hash)
	if err != nil {
		return "", err
	}
	var spec Spec
	if err := json.Unmarshal(meta, &spec); err != nil {
		return "", fmt.Errorf("fleet: snapshot %s spec: %w", hash, err)
	}
	data, err := m.cfg.Store.Get(hash)
	if err != nil {
		return "", err
	}
	sys, err := spec.restore(data)
	if err != nil {
		return "", fmt.Errorf("fleet: restoring snapshot %s: %w", hash, err)
	}
	spec.Language = sys.Language.String()
	s, err := m.register(spec, sys)
	if err != nil {
		return "", err
	}
	m.counters.forked.Add(1)
	return s.id, nil
}

// register adds a built machine to the session table under a fresh id,
// enforcing the drain and session-count gates. Create and CreateFrom
// share it; the session's first view carries the machine's counters (a
// fork's are its donor's) and no completed operation.
func (m *Manager) register(spec Spec, sys *dorado.System) (*Session, error) {
	m.mu.Lock()
	if m.draining {
		m.mu.Unlock()
		return nil, ErrDraining
	}
	if len(m.sessions) >= m.cfg.MaxSessions {
		m.mu.Unlock()
		return nil, fmt.Errorf("%w (%d)", ErrTooManySessions, m.cfg.MaxSessions)
	}
	m.nextID++
	s := &Session{
		id:       fmt.Sprintf("s%d", m.nextID),
		seq:      m.nextID,
		spec:     spec,
		birth:    m.cfg.now(),
		lastUsed: m.cfg.now(),
		sys:      sys,
	}
	s.publish(resLive, sys, 0)
	m.sessions[s.id] = s
	m.mu.Unlock()
	return s, nil
}

// ParkResult reports an explicit Park: whether the session is parked and,
// when a store is configured, the content hash its snapshot is durable
// under (usable with CreateFrom and GET /v1/snapshots/{hash}).
type ParkResult struct {
	Parked bool `json:"parked"`
	// Snapshot is the store hash of the parked snapshot; empty when the
	// manager has no store (the snapshot is held in memory).
	Snapshot string `json:"snapshot,omitempty"`
}

// Park immediately snapshots and evicts a session, without waiting for
// the idle janitor. Parking an already-parked session is an idempotent
// success. A session with queued or running operations reports ErrBusy —
// let the queue empty and retry.
func (m *Manager) Park(id string) (ParkResult, error) {
	s, ok := m.lookup(id)
	if !ok {
		return ParkResult{}, fmt.Errorf("%w: %q", ErrNotFound, id)
	}
	// Any instant in the future beats lastUsed; idleness is not required
	// for an explicit park, only quiescence (no queued or scheduled work).
	if s.park(m, m.cfg.now().Add(time.Nanosecond)) {
		s.mu.Lock()
		defer s.mu.Unlock()
		return ParkResult{Parked: true, Snapshot: s.parkedHash}, nil
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	switch {
	case s.closed:
		return ParkResult{}, fmt.Errorf("%w: %q", ErrNotFound, id)
	case s.sys == nil:
		return ParkResult{Parked: true, Snapshot: s.parkedHash}, nil
	default:
		return ParkResult{}, fmt.Errorf("%w: session %q has queued or running work", ErrBusy, id)
	}
}

// Destroy removes a session. Operations already queued on it complete;
// new ones get ErrNotFound. With a store configured the session's
// manifest entry is removed first (its snapshot blob stays — content-
// addressed blobs may seed forks); if the manifest cannot be rewritten,
// Destroy fails and the session stays as it was, so the call can be
// retried.
func (m *Manager) Destroy(id string) error {
	s, ok := m.lookup(id)
	if !ok {
		return fmt.Errorf("%w: %q", ErrNotFound, id)
	}
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return fmt.Errorf("%w: %q", ErrNotFound, id)
	}
	if m.cfg.Store != nil {
		if err := m.cfg.Store.DeleteSession(id); err != nil {
			s.mu.Unlock()
			return fmt.Errorf("fleet: destroying session %s: %w", id, err)
		}
	}
	s.closed = true
	s.mu.Unlock()
	m.mu.Lock()
	delete(m.sessions, id)
	m.mu.Unlock()
	m.counters.destroyed.Add(1)
	return nil
}

// RunResult reports one run-cycles operation.
type RunResult struct {
	// Ran is the number of cycles actually simulated (less than requested
	// when the machine halts).
	Ran uint64 `json:"ran"`
	// Cycle is the machine's cycle counter after the run.
	Cycle uint64 `json:"cycle"`
	// Halted reports whether the machine has executed a Halt.
	Halted bool `json:"halted"`
}

// Run advances the session's machine by up to cycles cycles and waits
// for the result. It is the synchronous wrapper over the async runs
// resource (SubmitRun): the run is submitted like any other and Run
// blocks until the worker has finished it. If ctx expires first, Run
// returns early but the accepted run still executes — poll it with
// GetRun.
func (m *Manager) Run(ctx context.Context, id string, cycles uint64) (RunResult, error) {
	r, err := m.submitRun(ctx, id, cycles)
	if err != nil {
		return RunResult{}, err
	}
	select {
	case <-r.done:
	case <-ctx.Done():
		return RunResult{}, ctx.Err()
	}
	if r.err != nil {
		return RunResult{}, r.err
	}
	return *r.view.Load().Result, nil
}

// LoadResult reports a load-microcode operation.
type LoadResult struct {
	// Entry is the placed microstore address of the start label.
	Entry uint16 `json:"entry"`
	// Placement summarizes how the placer packed the program.
	Placement string `json:"placement"`
}

// LoadMicrocode assembles microassembly text (the doradoasm format, see
// masm.ParseText), loads the placed image into the session's microstore,
// and starts task 0 at the named label. Devices in the session's Spec that
// name a Start label get their task's TPC pointed at it, so one request
// wires the program and its service routines together.
func (m *Manager) LoadMicrocode(ctx context.Context, id, text, start string) (LoadResult, error) {
	var devices []DeviceSpec
	sess, found := m.lookup(id)
	if found {
		devices = sess.spec.Devices // immutable after Create; safe to read
	}
	res, err := m.submit(ctx, id, opMicrocode, func(sys *system) (any, error) {
		prog, err := masm.AssembleText(text)
		if err != nil {
			return nil, err
		}
		entry, err := prog.Entry(start)
		if err != nil {
			return nil, err
		}
		// Resolve every device Start label before touching the machine, so
		// a bad label leaves the previous program running.
		type tpc struct {
			task  int
			entry uint16
		}
		var tpcs []tpc
		for _, ds := range devices {
			if ds.Start == "" {
				continue
			}
			n, err := ds.normalize()
			if err != nil {
				return nil, err
			}
			de, err := prog.Entry(ds.Start)
			if err != nil {
				return nil, fmt.Errorf("device %q: %w", ds.Name, err)
			}
			tpcs = append(tpcs, tpc{n.Task, uint16(de)})
		}
		sys.Machine.Load(&prog.Words)
		sys.Machine.Start(entry)
		for _, t := range tpcs {
			sys.Machine.SetTPC(t.task, dorado.Addr(t.entry))
		}
		if found {
			// Retain the program's symbols so profiles name microaddresses
			// by label; built once here, read by every profile op.
			st := prof.NewSymbolTable(prog.Symbols)
			sess.mu.Lock()
			sess.symbols = st
			sess.mu.Unlock()
		}
		return LoadResult{Entry: uint16(entry), Placement: prog.Stats.String()}, nil
	})
	if err != nil {
		return LoadResult{}, err
	}
	return res.value.(LoadResult), nil
}

// BootSource compiles source text for the session's language (Mesa, Lisp,
// or Smalltalk) and boots it, exactly as dorado.(*System).BootSource.
func (m *Manager) BootSource(ctx context.Context, id, source string) error {
	_, err := m.submit(ctx, id, opBoot, func(sys *system) (any, error) {
		return nil, sys.BootSource(source)
	})
	return err
}

// State is a read of one session's architectural and scheduling state.
type State struct {
	ID       string `json:"id"`
	Language string `json:"language"`
	// Parked reports that the session was evicted (snapshot-only) when a
	// worker picked this read up, so the read revived it.
	Parked bool `json:"parked"`
	// Queue is the number of operations pending behind this read.
	Queue    int    `json:"queue"`
	Cycle    uint64 `json:"cycle"`
	Executed uint64 `json:"executed"`
	Halted   bool   `json:"halted"`
	// Stack is the hardware evaluation stack (Mesa/Smalltalk sessions).
	Stack []uint16 `json:"stack,omitempty"`
	// Acc is task 0's T register (the BCPL accumulator).
	Acc uint16 `json:"acc"`
}

// ReadState runs a serialized read of the session's machine state. Note
// that the read revives a parked session (State.Parked reports whether it
// had to); use Sessions for a listing that leaves parked sessions parked.
func (m *Manager) ReadState(ctx context.Context, id string) (State, error) {
	res, err := m.submit(ctx, id, opState, func(sys *system) (any, error) {
		s, _ := m.lookup(id)
		st := State{
			ID:       id,
			Language: sys.Language.String(),
			Cycle:    sys.Machine.Cycle(),
			Executed: sys.Machine.Stats().Executed,
			Halted:   sys.Machine.Halted(),
			Stack:    sys.Stack(),
			Acc:      sys.Acc(),
		}
		if s != nil {
			s.mu.Lock()
			st.Queue = len(s.pending)
			s.mu.Unlock()
		}
		return st, nil
	})
	if err != nil {
		return State{}, err
	}
	st := res.value.(State)
	st.Parked = res.revived
	return st, nil
}

// Snapshot serializes the session's complete machine state (the versioned
// internal/state document).
func (m *Manager) Snapshot(ctx context.Context, id string) ([]byte, error) {
	res, err := m.submit(ctx, id, opSnapshot, func(sys *system) (any, error) {
		return sys.Machine.Snapshot(), nil
	})
	if err != nil {
		return nil, err
	}
	return res.value.([]byte), nil
}

// Restore replaces the session's machine with one restored from a
// snapshot previously taken from a session with the same Spec. The new
// machine is built from the Spec and installed only once the snapshot
// restores, so a refused snapshot leaves the session exactly as it was.
// Like a revival, it starts a fresh recorder and profiler.
func (m *Manager) Restore(ctx context.Context, id string, data []byte) error {
	s, ok := m.lookup(id)
	if !ok {
		return fmt.Errorf("%w: %q", ErrNotFound, id)
	}
	_, err := m.submit(ctx, id, opRestore, func(*system) (any, error) {
		sys, err := s.spec.restore(data)
		if err != nil {
			return nil, err
		}
		s.mu.Lock()
		s.sys = sys
		s.mu.Unlock()
		return nil, nil
	})
	return err
}

// TraceJSON exports the session's cycle-level trace in the Chrome
// trace_event format (load it at chrome://tracing or ui.perfetto.dev).
// The session must have been created with Spec.Metrics; otherwise the
// call fails with ErrNoMetrics. The export runs as a serialized
// operation, so it is safe to request while other clients are running the
// machine — it simply waits its turn in the session's queue — and it
// revives a parked session (the trace then covers the span since
// revival; parking serializes only machine state).
func (m *Manager) TraceJSON(ctx context.Context, id string) ([]byte, error) {
	res, err := m.submit(ctx, id, opTrace, func(sys *system) (any, error) {
		if sys.Metrics == nil {
			return nil, fmt.Errorf("%w: %q", ErrNoMetrics, id)
		}
		sys.Metrics.Flush(sys.Machine.Cycle())
		var buf bytes.Buffer
		if err := obs.WriteChromeTrace(&buf, sys.Metrics); err != nil {
			return nil, err
		}
		return buf.Bytes(), nil
	})
	if err != nil {
		return nil, err
	}
	return res.value.([]byte), nil
}

// ObsResult is the response of an obs-summary operation: the condensed
// JSON view of the session's recorder plus enough session context to read
// it (where the machine's cycle counter stands, and whether the summary
// covers only the span since a revival).
type ObsResult struct {
	ID    string `json:"id"`
	Cycle uint64 `json:"cycle"`
	// Revived reports that this read revived a parked session: the
	// recorder was recreated at revival, so the counters cover only the
	// span since then.
	Revived bool        `json:"revived,omitempty"`
	Obs     obs.Summary `json:"obs"`
	// Translation surfaces the machine's superblock-translator counters
	// (all zero on sessions built without translation).
	Translation dorado.TranslationStats `json:"translation"`
}

// ObsSummary condenses the session's observability recorder — wakeup
// counters, hold-latency and wakeup-to-run histograms, the utilization
// timeline rolled up per task — into a JSON-ready Summary. Requires
// Spec.Metrics, like TraceJSON.
func (m *Manager) ObsSummary(ctx context.Context, id string) (ObsResult, error) {
	res, err := m.submit(ctx, id, opObs, func(sys *system) (any, error) {
		if sys.Metrics == nil {
			return nil, fmt.Errorf("%w: %q", ErrNoMetrics, id)
		}
		sys.Metrics.Flush(sys.Machine.Cycle())
		return ObsResult{
			ID:          id,
			Cycle:       sys.Machine.Cycle(),
			Obs:         obs.Summarize(sys.Metrics),
			Translation: sys.Machine.TranslationStats(),
		}, nil
	})
	if err != nil {
		return ObsResult{}, err
	}
	r := res.value.(ObsResult)
	r.Revived = res.revived
	return r, nil
}

func (m *Manager) lookup(id string) (*Session, bool) {
	m.mu.Lock()
	defer m.mu.Unlock()
	s, ok := m.sessions[id]
	return s, ok
}

// Info is one row of the session listing. It is assembled from each
// session's published view, so listing does not serialize behind the
// sessions' queues.
type Info struct {
	ID       string `json:"id"`
	Language string `json:"language"`
	// Devices lists the mounted controllers' catalog names, in Spec order.
	Devices []string `json:"devices,omitempty"`
	Parked  bool     `json:"parked"`
	// Snapshot is the content hash of the session's most recently
	// persisted snapshot (managers with Config.Store only). For a parked
	// session it names the exact bytes revival will restore; it also
	// seeds forks via CreateFrom.
	Snapshot string `json:"snapshot,omitempty"`
	Queue    int    `json:"queue"`
	Cycle    uint64 `json:"cycle"`
	Halted   bool   `json:"halted"`
	// Ops counts the operations completed on the session; a fork starts
	// at 0 with its donor's counters.
	Ops uint64 `json:"ops"`
}

// Sessions lists every session in creation order.
func (m *Manager) Sessions() []Info {
	list := m.table()
	out := make([]Info, 0, len(list))
	for _, s := range list {
		// The view and the hash are read together: park replaces both
		// under the lock.
		s.mu.Lock()
		v, queue, snap := s.published.Load(), len(s.pending), s.parkedHash
		s.mu.Unlock()
		var devs []string
		for _, ds := range s.spec.Devices {
			devs = append(devs, ds.Name)
		}
		out = append(out, Info{
			ID:       s.id,
			Language: s.spec.Language,
			Devices:  devs,
			Parked:   v.res != resLive,
			Snapshot: snap,
			Queue:    queue,
			Cycle:    v.Stats.Cycles,
			Halted:   v.Halted,
			Ops:      v.Ops,
		})
	}
	return out
}

// table copies the session table in creation order. It holds the manager
// lock only for the copy and takes no session lock.
func (m *Manager) table() []*Session {
	m.mu.Lock()
	list := make([]*Session, 0, len(m.sessions))
	for _, s := range m.sessions {
		list = append(list, s)
	}
	m.mu.Unlock()
	sort.Slice(list, func(i, j int) bool { return list[i].seq < list[j].seq })
	return list
}
