package fleet

import (
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"strconv"
	"time"
)

// This file is the live half of the fleet's observability: a Server-Sent
// Events stream (GET /v1/sessions/{id}/events) pushing periodic snapshots
// of a session's counters while it runs. The stream reads only the
// session's published view — never the machine, never a session lock —
// so watchers cost the hot loop nothing, and each event is one
// operation's counters. The flip side: the worker publishes when it
// finishes an operation, so a stream shows progress at operation
// granularity (one long run updates once, at its end). A session serves
// at most maxWatchers streams, and every write carries a deadline, so a
// client that stops reading is dropped and its slot freed.
//
// Besides the periodic "stats" snapshots, the stream carries the runs
// resource's completion notifications: every run that finishes on the
// session emits one "run" event whose data is the terminal RunView, so a
// client that submitted POST .../runs can wait on the stream instead of
// polling. Delivery is best-effort (a slow consumer misses events rather
// than slowing run completion); GetRun remains the source of truth.
//
// A stream ends when the client disconnects, the session is destroyed
// ("bye" event, reason "destroyed"), or the manager starts draining
// ("bye", reason "drain"). The drain case matters operationally: Drain
// closes the manager's DrainSignal before waiting for in-flight
// operations, so streams release their connections immediately instead of
// holding http.Server.Shutdown open.

// Event stream cadence: the default snapshot interval and the bounds the
// ?interval_ms query parameter is clamped to.
const (
	defaultEventInterval = 500 * time.Millisecond
	minEventInterval     = 50 * time.Millisecond
	maxEventInterval     = 10 * time.Second
)

// Event stream bounds. A session serves at most maxWatchers streams; the
// next is refused with errTooManyWatchers (429 too_many_watchers) until
// one ends. Every write must finish within eventWriteTimeout (the
// Server's default), so a client that stops reading is dropped once the
// kernel buffers fill, and its slot is freed.
const (
	maxWatchers       = 16
	eventWriteTimeout = 10 * time.Second
)

var errTooManyWatchers = errors.New("fleet: session event stream limit reached")

// Event is one SSE stats snapshot ("event: stats"). Counters come from
// the session's published view, replaced after each completed operation.
type Event struct {
	ID string `json:"id"`
	// Cycle, Executed, Holds, and Halted mirror the machine's counters as
	// of the last completed operation.
	Cycle    uint64 `json:"cycle"`
	Executed uint64 `json:"executed"`
	Holds    uint64 `json:"holds"`
	Halted   bool   `json:"halted"`
	// Parked reports that the session is currently evicted to a snapshot.
	Parked bool `json:"parked"`
	// Ops counts operations completed on the session since creation.
	Ops uint64 `json:"ops"`
	// Tasks is per-task busy cycles (nonzero tasks only) — the live
	// utilization breakdown.
	Tasks []TaskBusy `json:"tasks,omitempty"`
}

// TaskBusy is one task's busy-cycle count in an Event.
type TaskBusy struct {
	Task   int    `json:"task"`
	Cycles uint64 `json:"cycles"`
}

// sessionEvent assembles an Event from the session's published view.
func sessionEvent(s *Session) Event {
	v := s.published.Load()
	ev := Event{
		ID:       s.id,
		Cycle:    v.Stats.Cycles,
		Executed: v.Stats.Executed,
		Holds:    v.Stats.Holds,
		Halted:   v.Halted,
		Parked:   v.res != resLive,
		Ops:      v.Ops,
	}
	for t, c := range v.Stats.TaskCycles {
		if c != 0 {
			ev.Tasks = append(ev.Tasks, TaskBusy{Task: t, Cycles: c})
		}
	}
	return ev
}

// streamEvents serves GET /v1/sessions/{id}/events.
func (s *Server) streamEvents(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	sess, ok := s.mgr.lookup(id)
	if !ok {
		s.writeError(w, r, fmt.Errorf("%w: %q", ErrNotFound, id))
		return
	}
	interval := defaultEventInterval
	if q := r.URL.Query().Get("interval_ms"); q != "" {
		ms, err := strconv.Atoi(q)
		if err != nil || ms <= 0 {
			s.badRequest(w, r, fmt.Errorf("interval_ms must be a positive integer, got %q", q))
			return
		}
		interval = min(max(time.Duration(ms)*time.Millisecond, minEventInterval), maxEventInterval)
	}
	runC, err := sess.subscribeRuns()
	if err != nil {
		s.writeError(w, r, err)
		return
	}
	defer sess.unsubscribeRuns(runC)

	// Flush and the write deadline must reach the real writer through the
	// access-log wrapper; statusWriter.Unwrap makes the controller's walk
	// succeed.
	rc := http.NewResponseController(w)
	w.Header().Set("Content-Type", "text/event-stream")
	w.Header().Set("Cache-Control", "no-cache")
	w.WriteHeader(http.StatusOK)

	// send writes one event under a fresh write deadline, so a client that
	// stops reading fails the write and ends the stream.
	send := func(event string, data []byte) error {
		if err := rc.SetWriteDeadline(time.Now().Add(s.eventWriteTimeout)); err != nil {
			return err
		}
		if _, err := fmt.Fprintf(w, "event: %s\ndata: %s\n\n", event, data); err != nil {
			return err
		}
		return rc.Flush()
	}
	ticker := time.NewTicker(interval)
	defer ticker.Stop()
	for {
		if _, alive := s.mgr.lookup(id); !alive {
			send("bye", []byte(`{"reason":"destroyed"}`)) //nolint:errcheck // the stream ends either way
			return
		}
		data, err := json.Marshal(sessionEvent(sess))
		if err != nil || send("stats", data) != nil {
			return
		}
		select {
		case <-r.Context().Done():
			return
		case <-s.mgr.DrainSignal():
			send("bye", []byte(`{"reason":"drain"}`)) //nolint:errcheck // the stream ends either way
			return
		case rv := <-runC:
			data, err := json.Marshal(rv)
			if err != nil || send("run", data) != nil {
				return
			}
		case <-ticker.C:
		}
	}
}
