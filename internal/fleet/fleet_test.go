package fleet

import (
	"bytes"
	"context"
	"errors"
	"runtime/debug"
	"strings"
	"sync"
	"testing"
	"time"

	"dorado"
	"dorado/internal/memory"
	"dorado/internal/obs"
)

// tctx is the background context tests thread through Manager operations.
var tctx = context.Background()

// smallSpec keeps test machines light: 32 KB of storage instead of 2 MB.
func smallSpec() Spec {
	return Spec{Machine: dorado.Config{Memory: memory.Config{StorageWords: 1 << 14}}}
}

func drainNow(t *testing.T, m *Manager) {
	t.Helper()
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := m.Drain(ctx); err != nil {
		t.Fatalf("drain: %v", err)
	}
}

func TestCreateLoadRunReadState(t *testing.T) {
	m := New(Config{Workers: 2})
	defer drainNow(t, m)

	id, err := m.Create(smallSpec())
	if err != nil {
		t.Fatal(err)
	}
	if id != "s1" {
		t.Fatalf("first session id = %q", id)
	}
	res, err := m.LoadMicrocode(tctx, id, SpinMicrocode, "start")
	if err != nil {
		t.Fatal(err)
	}
	if res.Placement == "" {
		t.Error("empty placement report")
	}
	r, err := m.Run(tctx, id, 1000)
	if err != nil {
		t.Fatal(err)
	}
	if r.Ran != 1000 || r.Cycle != 1000 || r.Halted {
		t.Fatalf("run = %+v", r)
	}
	st, err := m.ReadState(tctx, id)
	if err != nil {
		t.Fatal(err)
	}
	if st.Cycle != 1000 || st.Halted || st.Language != "None" {
		t.Fatalf("state = %+v", st)
	}
	infos := m.Sessions()
	if len(infos) != 1 || infos[0].ID != id || infos[0].Cycle != 1000 || infos[0].Parked {
		t.Fatalf("sessions = %+v", infos)
	}
}

func TestMesaSessionBootSource(t *testing.T) {
	m := New(Config{Workers: 2})
	defer drainNow(t, m)

	id, err := m.Create(Spec{Language: "mesa"})
	if err != nil {
		t.Fatal(err)
	}
	if err := m.BootSource(tctx, id, "return 6*7;"); err != nil {
		t.Fatal(err)
	}
	r, err := m.Run(tctx, id, 1_000_000)
	if err != nil {
		t.Fatal(err)
	}
	if !r.Halted {
		t.Fatal("program did not halt")
	}
	st, err := m.ReadState(tctx, id)
	if err != nil {
		t.Fatal(err)
	}
	if len(st.Stack) != 1 || st.Stack[0] != 42 {
		t.Fatalf("stack = %v", st.Stack)
	}
	if err := m.BootSource(tctx, id, "syntax error ("); err == nil {
		t.Fatal("bad source accepted")
	}
}

// TestCreateRefusesFaultTask: a machine whose fault task is no task
// number cannot be built (its snapshot could not hold it), so Create
// fails and registers no session.
func TestCreateRefusesFaultTask(t *testing.T) {
	m := New(Config{Workers: 1})
	defer drainNow(t, m)
	if id, err := m.Create(Spec{Machine: dorado.Config{FaultTask: 300}}); err == nil {
		t.Fatalf("Create accepted fault task 300 as %s", id)
	}
	if infos := m.Sessions(); len(infos) != 0 {
		t.Fatalf("sessions after a refused create = %+v", infos)
	}
}

func TestSnapshotRestoreRoundTrip(t *testing.T) {
	m := New(Config{Workers: 2})
	defer drainNow(t, m)

	id, err := m.Create(smallSpec())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := m.LoadMicrocode(tctx, id, SpinMicrocode, "start"); err != nil {
		t.Fatal(err)
	}
	if _, err := m.Run(tctx, id, 1000); err != nil {
		t.Fatal(err)
	}
	snap, err := m.Snapshot(tctx, id)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := m.Run(tctx, id, 1000); err != nil {
		t.Fatal(err)
	}
	if err := m.Restore(tctx, id, snap); err != nil {
		t.Fatal(err)
	}
	st, err := m.ReadState(tctx, id)
	if err != nil {
		t.Fatal(err)
	}
	if st.Cycle != 1000 {
		t.Fatalf("restored cycle = %d, want 1000", st.Cycle)
	}
	again, err := m.Snapshot(tctx, id)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(snap, again) {
		t.Fatal("snapshot→restore→snapshot is not byte-identical")
	}
	if err := m.Restore(tctx, id, []byte("junk")); err == nil {
		t.Fatal("garbage snapshot accepted")
	}
}

// blockSession parks the (single) worker inside an operation on id until
// the returned release function is called.
func blockSession(t *testing.T, m *Manager, id string) (running <-chan struct{}, release func()) {
	t.Helper()
	started := make(chan struct{})
	gate := make(chan struct{})
	done := make(chan struct{})
	go func() {
		defer close(done)
		_, err := m.submit(tctx, id, opRun, func(*system) (any, error) {
			close(started)
			<-gate
			return RunResult{}, nil
		})
		if err != nil {
			t.Errorf("blocking op: %v", err)
		}
	}()
	return started, func() { close(gate); <-done }
}

func TestBackpressureOverload(t *testing.T) {
	m := New(Config{Workers: 1, QueueDepth: 1})
	defer drainNow(t, m)

	id, err := m.Create(smallSpec())
	if err != nil {
		t.Fatal(err)
	}
	running, release := blockSession(t, m, id)
	<-running

	// The worker is busy; one operation fits in the queue, the next must
	// be rejected.
	queued := make(chan error, 1)
	go func() {
		_, err := m.Run(tctx, id, 1)
		queued <- err
	}()
	waitQueue(t, m, id, 1)
	if _, err := m.Run(tctx, id, 1); !errors.Is(err, ErrOverloaded) {
		t.Fatalf("overload error = %v", err)
	}
	release()
	if err := <-queued; err != nil {
		t.Fatalf("queued op: %v", err)
	}
	if got := m.counters.rejectedLoad.Load(); got != 1 {
		t.Fatalf("rejected counter = %d", got)
	}
}

// waitQueue blocks until the session's pending queue reaches depth n.
func waitQueue(t *testing.T, m *Manager, id string, n int) {
	t.Helper()
	s, ok := m.lookup(id)
	if !ok {
		t.Fatal("session vanished")
	}
	deadline := time.Now().Add(5 * time.Second)
	for {
		s.mu.Lock()
		depth := len(s.pending)
		s.mu.Unlock()
		if depth >= n {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("queue never reached %d", n)
		}
		time.Sleep(100 * time.Microsecond)
	}
}

func TestDrainRejectsAndCompletes(t *testing.T) {
	m := New(Config{Workers: 1, QueueDepth: 4})
	id, err := m.Create(smallSpec())
	if err != nil {
		t.Fatal(err)
	}
	running, release := blockSession(t, m, id)
	<-running

	// A short-deadline drain must time out while the operation is stuck.
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Millisecond)
	err = m.Drain(ctx)
	cancel()
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("drain with stuck op = %v", err)
	}

	// Admission is already closed.
	if _, err := m.Run(tctx, id, 1); !errors.Is(err, ErrDraining) {
		t.Fatalf("run while draining = %v", err)
	}
	if _, err := m.Create(smallSpec()); !errors.Is(err, ErrDraining) {
		t.Fatalf("create while draining = %v", err)
	}

	release()
	drainNow(t, m)
	// Idempotent.
	drainNow(t, m)
}

// TestDestroyRecreateAtCapNoDeadlock is the regression test for the
// worker-pool deadlock: a destroyed session stays scheduled until its
// queued operations finish, so destroy-then-recreate at the session cap
// briefly yields more scheduled sessions than MaxSessions. With the old
// fixed-capacity runnable channel the lone worker blocked forever on the
// re-enqueue send; the run queue must absorb the excess.
func TestDestroyRecreateAtCapNoDeadlock(t *testing.T) {
	m := New(Config{Workers: 1, MaxSessions: 1, QueueDepth: 4})
	defer drainNow(t, m)

	a, err := m.Create(smallSpec())
	if err != nil {
		t.Fatal(err)
	}
	running, release := blockSession(t, m, a)
	<-running

	// Queue a second operation so a stays scheduled after Destroy.
	queued := make(chan error, 1)
	go func() {
		_, err := m.Run(tctx, a, 1)
		queued <- err
	}()
	waitQueue(t, m, a, 1)
	if err := m.Destroy(a); err != nil {
		t.Fatal(err)
	}
	b, err := m.Create(smallSpec())
	if err != nil {
		t.Fatalf("recreate at cap: %v", err)
	}

	// Two sessions are now scheduled (the destroyed a and the new b) with
	// MaxSessions = 1. Release the worker and require both to finish.
	submitted := make(chan error, 1)
	go func() {
		_, err := m.Run(tctx, b, 1)
		submitted <- err
	}()
	release()
	for name, c := range map[string]chan error{"queued op on destroyed session": queued, "op on recreated session": submitted} {
		select {
		case err := <-c:
			if err != nil {
				t.Errorf("%s: %v", name, err)
			}
		case <-time.After(10 * time.Second):
			t.Fatalf("%s deadlocked", name)
		}
	}
}

func TestIdleEvictionAndRevival(t *testing.T) {
	clock := struct {
		sync.Mutex
		t time.Time
	}{t: time.Unix(1000, 0)}
	now := func() time.Time {
		clock.Lock()
		defer clock.Unlock()
		return clock.t
	}
	m := New(Config{Workers: 1, IdleAfter: time.Minute, sweepEvery: time.Hour, now: now})
	defer drainNow(t, m)

	id, err := m.Create(smallSpec())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := m.LoadMicrocode(tctx, id, SpinMicrocode, "start"); err != nil {
		t.Fatal(err)
	}
	if _, err := m.Run(tctx, id, 500); err != nil {
		t.Fatal(err)
	}

	if n := m.Sweep(); n != 0 {
		t.Fatalf("fresh session parked (%d)", n)
	}
	clock.Lock()
	clock.t = clock.t.Add(2 * time.Minute)
	clock.Unlock()
	if n := m.Sweep(); n != 1 {
		t.Fatalf("sweep parked %d sessions, want 1", n)
	}
	infos := m.Sessions()
	if !infos[0].Parked {
		t.Fatalf("session not parked: %+v", infos[0])
	}

	// ReadState reports the parked-ness it observed, then revives.
	st, err := m.ReadState(tctx, id)
	if err != nil {
		t.Fatal(err)
	}
	if !st.Parked {
		t.Error("ReadState.Parked = false for a parked session")
	}
	if st, err = m.ReadState(tctx, id); err != nil {
		t.Fatal(err)
	} else if st.Parked {
		t.Error("ReadState.Parked = true after revival")
	}

	// The revived machine carries its state; runs continue from cycle 500.
	r, err := m.Run(tctx, id, 500)
	if err != nil {
		t.Fatal(err)
	}
	if r.Cycle != 1000 {
		t.Fatalf("revived cycle = %d, want 1000", r.Cycle)
	}
	if m.counters.evicted.Load() != 1 || m.counters.revived.Load() != 1 {
		t.Fatalf("evicted/revived = %d/%d",
			m.counters.evicted.Load(), m.counters.revived.Load())
	}
}

// TestParkRightAfterRun parks the instant each run returns. The worker
// releases the session before it delivers a result, so whoever sees an
// operation complete finds the session idle: Park never answers ErrBusy.
func TestParkRightAfterRun(t *testing.T) {
	m := New(Config{Workers: 2})
	defer drainNow(t, m)
	id, err := m.Create(smallSpec())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := m.LoadMicrocode(tctx, id, SpinMicrocode, "start"); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 200; i++ {
		if _, err := m.Run(tctx, id, 100); err != nil {
			t.Fatal(err)
		}
		if _, err := m.Park(id); err != nil {
			t.Fatalf("park %d right after its run: %v", i, err)
		}
	}
}

// TestQueueWaitEndsAtPickup: reviving a parked session is service time,
// not queue wait. The revive is Spec.restore of the parked snapshot, so
// the state op's service time must be at least about what that restore
// costs here. The test times the restore itself, because the queue wait
// includes a worker's wake-up, which can outlast a revive on a loaded
// host.
func TestQueueWaitEndsAtPickup(t *testing.T) {
	m := New(Config{Workers: 1})
	defer drainNow(t, m)
	id, err := m.Create(Spec{Language: "mesa"})
	if err != nil {
		t.Fatal(err)
	}
	if err := m.BootSource(tctx, id, "return 6*7;"); err != nil {
		t.Fatal(err)
	}
	if _, err := m.Run(tctx, id, 1_000_000); err != nil {
		t.Fatal(err)
	}
	if r, err := m.Park(id); err != nil || !r.Parked {
		t.Fatalf("park = %+v, %v", r, err)
	}
	s, _ := m.lookup(id)
	s.mu.Lock()
	spec, parked := s.spec, s.parked
	s.mu.Unlock()
	// The fastest of several restores is what a revive costs here. The
	// collector is off for the rest of the test: on a loaded host a
	// concurrent cycle's assists can slow every one of them.
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	var restore time.Duration
	for i := 0; i < 10; i++ {
		began := time.Now()
		if _, err := spec.restore(parked); err != nil {
			t.Fatal(err)
		}
		if d := time.Since(began); i == 0 || d < restore {
			restore = d
		}
	}

	if _, err := m.ReadState(tctx, id); err != nil {
		t.Fatal(err)
	}
	queue, service := m.lat.queue[opState].Snapshot(), m.lat.service[opState].Snapshot()
	if queue.Total != 1 || service.Total != 1 {
		t.Fatalf("state ops observed: queue %d, service %d, want 1 each", queue.Total, service.Total)
	}
	// The histograms truncate to whole microseconds.
	if got := time.Duration(service.Sum+1) * time.Microsecond; got < restore/2 {
		t.Errorf("state op after a park: service %d µs, but a revive takes %v; the revive was booked as waiting (queue %d µs)",
			service.Sum, restore, queue.Sum)
	}
}

func TestDestroyAndLimits(t *testing.T) {
	m := New(Config{Workers: 1, MaxSessions: 2})
	defer drainNow(t, m)

	a, err := m.Create(smallSpec())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := m.Create(smallSpec()); err != nil {
		t.Fatal(err)
	}
	if _, err := m.Create(smallSpec()); !errors.Is(err, ErrTooManySessions) {
		t.Fatalf("over-limit create = %v", err)
	}
	if err := m.Destroy(a); err != nil {
		t.Fatal(err)
	}
	if _, err := m.Run(tctx, a, 1); !errors.Is(err, ErrNotFound) {
		t.Fatalf("run destroyed = %v", err)
	}
	if err := m.Destroy(a); !errors.Is(err, ErrNotFound) {
		t.Fatalf("double destroy = %v", err)
	}
	if _, err := m.Create(smallSpec()); err != nil {
		t.Fatalf("create after destroy: %v", err)
	}
	if _, err := m.Run(tctx, "nope", 1); !errors.Is(err, ErrNotFound) {
		t.Fatalf("unknown id = %v", err)
	}
}

// TestHealthAfterDestroyingQueuedParked: destroying a parked session
// while a read waits in its queue leaves the residency counts agreeing
// with the session table. The queued read still runs, and revives the
// destroyed session, which no count includes any more.
func TestHealthAfterDestroyingQueuedParked(t *testing.T) {
	m := New(Config{Workers: 1})
	defer drainNow(t, m)

	other, err := m.Create(smallSpec())
	if err != nil {
		t.Fatal(err)
	}
	id, err := m.Create(smallSpec())
	if err != nil {
		t.Fatal(err)
	}
	if r, err := m.Park(id); err != nil || !r.Parked {
		t.Fatalf("park = %+v, %v", r, err)
	}
	running, release := blockSession(t, m, other)
	<-running
	read := make(chan error, 1)
	go func() {
		_, err := m.ReadState(tctx, id)
		read <- err
	}()
	waitQueue(t, m, id, 1)
	if err := m.Destroy(id); err != nil {
		t.Fatal(err)
	}
	release()
	if err := <-read; err != nil {
		t.Fatalf("queued read: %v", err)
	}

	if h := m.Health(); h.Sessions.Active != 1 || h.Sessions.Parked != 0 || h.Sessions.Total != 1 {
		t.Fatalf("health = %+v, want 1 active, 0 parked, 1 total", h.Sessions)
	}
	var buf bytes.Buffer
	if err := obs.WritePrometheus(&buf, m.MetricsSnapshot()); err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{`dorado_fleet_sessions{state="live"} 1`, `dorado_fleet_sessions{state="parked"} 0`} {
		if !strings.Contains(buf.String(), want) {
			t.Errorf("metrics missing %q", want)
		}
	}
}

func TestMetricsSnapshotFamilies(t *testing.T) {
	m := New(Config{Workers: 1})
	defer drainNow(t, m)

	id, err := m.Create(smallSpec())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := m.LoadMicrocode(tctx, id, SpinMicrocode, "start"); err != nil {
		t.Fatal(err)
	}
	if _, err := m.Run(tctx, id, 2048); err != nil {
		t.Fatal(err)
	}

	var buf bytes.Buffer
	if err := obs.WritePrometheus(&buf, m.MetricsSnapshot()); err != nil {
		t.Fatal(err)
	}
	text := buf.String()
	for _, want := range []string{
		`dorado_fleet_sessions{state="live"} 1`,
		`dorado_fleet_ops_total{op="run"} 1`,
		`dorado_fleet_ops_total{op="microcode"} 1`,
		`dorado_fleet_cycles_total 2048`,
		`dorado_fleet_session_cycles_total{session="s1"} 2048`,
		`dorado_fleet_rejected_total{reason="overloaded"} 0`,
	} {
		if !strings.Contains(text, want) {
			t.Errorf("metrics missing %q\n%s", want, text)
		}
	}
	// Export is deterministic for a quiet fleet.
	var again bytes.Buffer
	if err := obs.WritePrometheus(&again, m.MetricsSnapshot()); err != nil {
		t.Fatal(err)
	}
	if text != again.String() {
		t.Error("metrics export not deterministic")
	}
}

func TestMeasureScalingSmoke(t *testing.T) {
	points, err := MeasureScaling([]int{1, 2})
	if err != nil {
		t.Fatal(err)
	}
	if len(points) != 2 || points[0].Scaling != 1 {
		t.Fatalf("points = %+v", points)
	}
	for _, p := range points {
		if p.CyclesPerSec <= 0 || p.MetricsCyclesPerSec <= 0 || p.SimCycles != uint64(p.Sessions)*scalingOps*scalingCycles {
			t.Fatalf("bad point %+v", p)
		}
	}
}
