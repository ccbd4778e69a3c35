package main

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"slices"
	"strconv"
	"strings"
	"time"

	"dorado"
	"dorado/internal/fleet"
	"dorado/internal/store"
)

// span is one timed call. Spans of one operation share Op; Parent is the
// index of the span that made the call, -1 for an operation's root.
// Workload names the workload whose operations were being replayed.
type span struct {
	Op       int                `json:"op"`
	Parent   int                `json:"parent"`
	Workload string             `json:"workload"`
	Name     string             `json:"name"`
	Start    int64              `json:"start_ns"`
	End      int64              `json:"end_ns"`
	Attrs    map[string]float64 `json:"attrs,omitempty"`
}

// tracer keeps spans in memory until the run ends. The replay that
// records them runs on one goroutine, so it takes no lock.
type tracer struct {
	epoch    time.Time
	spans    []span
	ops      int
	workload string // stamped on every new span
}

func newTracer() *tracer { return &tracer{epoch: time.Now()} }

// root starts the root span of a new operation and returns its index.
func (tr *tracer) root(name string) int {
	tr.ops++
	tr.spans = append(tr.spans, span{Op: tr.ops, Parent: -1, Workload: tr.workload, Name: name, Start: tr.now()})
	return len(tr.spans) - 1
}

// call runs fn inside a child span of parent and returns the child's
// index and fn's error.
func (tr *tracer) call(parent int, name string, fn func() error) (int, error) {
	tr.spans = append(tr.spans, span{Op: tr.spans[parent].Op, Parent: parent, Workload: tr.workload, Name: name, Start: tr.now()})
	i := len(tr.spans) - 1
	err := fn()
	tr.spans[i].End = tr.now()
	return i, err
}

func (tr *tracer) end(i int) { tr.spans[i].End = tr.now() }

func (tr *tracer) now() int64 { return int64(time.Since(tr.epoch)) }

// record adds a finished root span for a timed operation.
func (tr *tracer) record(name string, start time.Time, d time.Duration) {
	tr.ops++
	s := int64(start.Sub(tr.epoch))
	tr.spans = append(tr.spans, span{Op: tr.ops, Parent: -1, Workload: tr.workload, Name: name, Start: s, End: s + int64(d)})
}

func (tr *tracer) attr(i int, key string, v float64) {
	if tr.spans[i].Attrs == nil {
		tr.spans[i].Attrs = map[string]float64{}
	}
	tr.spans[i].Attrs[key] = v
}

// selfTimes returns, per span name, every span's duration minus the part
// its children cover, in milliseconds.
func (tr *tracer) selfTimes() map[string][]float64 {
	child := make([]int64, len(tr.spans))
	for _, s := range tr.spans {
		if s.Parent >= 0 {
			child[s.Parent] += s.End - s.Start
		}
	}
	out := map[string][]float64{}
	for i, s := range tr.spans {
		out[s.Name] = append(out[s.Name], float64(s.End-s.Start-child[i])/1e6)
	}
	return out
}

// attrs returns every value of one attribute on spans of one name.
func (tr *tracer) attrs(name, key string) []float64 {
	var out []float64
	for _, s := range tr.spans {
		if v, ok := s.Attrs[key]; ok && s.Name == name {
			out = append(out, v)
		}
	}
	return out
}

// spanCost returns the time in nanoseconds that recording one span
// adds to a traced call: the tracing overhead, which belongs to the
// benchmark and which no change to the program moves.
func spanCost() float64 {
	const n = 100_000
	tr := newTracer()
	op := tr.root("op")
	start := time.Now()
	for i := 0; i < n; i++ {
		tr.call(op, "empty", func() error { return nil }) //nolint:errcheck // cannot fail
	}
	return float64(time.Since(start).Nanoseconds()) / n
}

func (tr *tracer) write(path string) error {
	data, err := json.Marshal(map[string]any{"spans": tr.spans})
	if err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}

// runTraced is the per-layer run. It repeats the workload's phases at
// reduced size against doradod with tracing off and reads the server's
// counters, replays every workload's operations in process with spans,
// and times the core on machines built like each workload's sessions.
func runTraced(ctx context.Context, o options, w workload, log io.Writer) (metrics, *tally, error) {
	dasm, err := devicesMicrocode(o.repo)
	if err != nil {
		return nil, nil, err
	}
	m := metrics{}
	t, err := fleetCounters(ctx, o, w, dasm, m)
	if err != nil {
		return nil, t, err
	}
	tr := newTracer()
	dir := filepath.Join(o.workdir, fmt.Sprintf("trace-%s-%d", w.name, o.seed))
	defer os.RemoveAll(dir)
	for _, rw := range workloads {
		tr.workload = rw.name
		if err := replay(ctx, tr, t, makePlan(rw, o.seed, 1, 0, replaySeqs, dasm), filepath.Join(dir, rw.name)); err != nil {
			return nil, t, fmt.Errorf("replaying %s: %w", rw.name, err)
		}
	}
	layerMetrics(tr, m)
	fmt.Fprintf(log, "perfbench: tracing costs %.0f ns per span (an empty call in a span; a park records six)\n", spanCost())
	if err := coreMetrics(o.seed, dasm, t, m); err != nil {
		return nil, t, err
	}
	spans := filepath.Join(o.spans, fmt.Sprintf("spans-%s-%d.json", w.name, o.seed))
	if err := tr.write(spans); err != nil {
		return nil, t, err
	}
	fmt.Fprintf(log, "perfbench: traced %s seed %d: %d spans of %d operations written to %s\n", w.name, o.seed, len(tr.spans), tr.ops, spans)
	t.report(log, "perfbench:")
	return m, t, nil
}

// fleetCounters repeats the workload's two phases at a third of their
// size against doradod, untraced, and derives the fleet and server
// metrics from GET /metrics and GET /debug/vars read before and after.
func fleetCounters(ctx context.Context, o options, w workload, dasm string, m metrics) (*tally, error) {
	t := newTally()
	b := &bench{p: makePlan(w, o.seed, o.seconds, 1.0/3, 16, dasm), t: t}
	defer b.teardown(context.Background())
	if err := b.setup(ctx, o.doradod, filepath.Join(o.workdir, fmt.Sprintf("store-trace-%s-%d", w.name, o.seed))); err != nil {
		return t, fmt.Errorf("setup: %w", err)
	}
	c := b.clients[0]
	before, err := scrape(ctx, c)
	if err != nil {
		return t, err
	}
	sent0 := t.sum(func(c *opCount) int { return c.sent })
	runs, err := b.runsPhase(ctx)
	if err != nil {
		return t, err
	}
	life, err := b.lifecyclePhase(ctx)
	if err != nil {
		return t, err
	}
	sent := t.sum(func(c *opCount) int { return c.sent }) - sent0
	after, err := scrape(ctx, c)
	if err != nil {
		return t, err
	}
	mean := func(hist, op string) float64 {
		sum := after.prom[hist+`_sum{op="`+op+`"}`] - before.prom[hist+`_sum{op="`+op+`"}`]
		n := after.prom[hist+`_count{op="`+op+`"}`] - before.prom[hist+`_count{op="`+op+`"}`]
		return sum / n / 1000
	}
	m.set("fleet.queue_ms.run", "ms", mean("dorado_fleet_op_queue_us", "run"))
	m.set("fleet.service_ms.run", "ms", mean("dorado_fleet_op_service_us", "run"))
	m.set("fleet.queue_ms.state", "ms", mean("dorado_fleet_op_queue_us", "state"))
	m.set("fleet.park_busy_retries", "count", float64(t.sum(func(c *opCount) int { return c.retries })))
	m.set("fleet.rejected", "count", float64(t.sum(func(c *opCount) int { return c.rejected })))
	m.set("server.alloc_kib_per_op", "KiB", (after.totalAlloc-before.totalAlloc)/1024/float64(sent))
	m.set("server.gc_per_s", "1/s", (after.numGC-before.numGC)/(runs.total().wall+life.total().wall).Seconds())
	return t, nil
}

// counters is one reading of doradod's Prometheus samples and memstats.
type counters struct {
	prom              map[string]float64
	totalAlloc, numGC float64
}

func scrape(ctx context.Context, c *client) (counters, error) {
	out := counters{prom: map[string]float64{}}
	req, err := http.NewRequestWithContext(ctx, "GET", c.base+"/metrics", nil)
	if err != nil {
		return out, err
	}
	resp, err := c.hc.Do(req)
	status := 0
	if resp != nil {
		status = resp.StatusCode
	}
	c.t.sent("metrics", status, err)
	if err != nil {
		return out, err
	}
	text, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		return out, err
	}
	for _, line := range strings.Split(string(text), "\n") {
		f := strings.Fields(line)
		if len(f) != 2 || strings.HasPrefix(line, "#") {
			continue
		}
		if v, err := strconv.ParseFloat(f[1], 64); err == nil {
			out.prom[f[0]] = v
		}
	}
	var vars struct {
		Memstats struct{ TotalAlloc, NumGC float64 }
	}
	if err := c.do(ctx, "vars", "GET", "/debug/vars", nil, &vars); err != nil {
		return out, err
	}
	out.totalAlloc, out.numGC = vars.Memstats.TotalAlloc, vars.Memstats.NumGC
	return out, nil
}

// replay runs one workload's operations three ways against an in-process
// fleet: over HTTP through fleet.NewServer, by direct Manager calls, and
// by calling the layers the fleet calls, each in a span. Checks apply to
// all three.
func replay(ctx context.Context, tr *tracer, t *tally, p plan, dir string) error {
	mst, err := store.Open(filepath.Join(dir, "fleet"))
	if err != nil {
		return err
	}
	lst, err := store.Open(filepath.Join(dir, "layers"))
	if err != nil {
		return err
	}
	mgr := fleet.New(fleet.Config{Workers: 2, Store: mst, GCEvery: -1})
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return err
	}
	hs := &http.Server{Handler: fleet.NewServer(mgr)}
	go hs.Serve(ln) //nolint:errcheck // ends with Shutdown below
	r := &replayer{tr: tr, t: t, p: p, mgr: mgr, lst: lst, spec: fleetSpec(p.w.kind)}
	r.b = &bench{p: p, t: t, onOp: func(op string, start time.Time, d time.Duration) { tr.record("http."+op, start, d) }}
	r.b.clients = [2]*client{newClient(0, "http://"+ln.Addr().String(), t), newClient(1, "http://"+ln.Addr().String(), t)}
	err = r.run(ctx)

	r.b.dropSessions(ctx)
	r.b.clients[0].close()
	r.b.clients[1].close()
	sctx, cancel := context.WithTimeout(ctx, 10*time.Second)
	defer cancel()
	return errors.Join(err, hs.Shutdown(sctx), mgr.Drain(sctx))
}

// fleetSpec is the Manager-side Spec of a session of kind k, as the HTTP
// server builds it from createBody.
func fleetSpec(k sessionKind) fleet.Spec {
	switch k {
	case kindMesaTranslated:
		return fleet.Spec{Language: "mesa", Machine: dorado.Config{Translation: dorado.Translation{Enable: true}}}
	case kindDevices:
		return fleet.Spec{Devices: []fleet.DeviceSpec{{Name: "disk", Start: "disk"}, {Name: "display", Start: "disp"}}}
	}
	return fleet.Spec{Language: "mesa"}
}

// replayRuns is the number of runs, and replaySeqs the number of
// lifecycle sequences, each path makes per workload. The runs take the
// plan's first run sizes, so they match the workload's timed runs.
const (
	replayRuns = 8
	replaySeqs = 10
)

type replayer struct {
	tr   *tracer
	t    *tally
	p    plan
	mgr  *fleet.Manager
	lst  *store.Store
	spec fleet.Spec
	b    *bench // the HTTP path: client 0 runs, client 1 lifecycle sequences
}

func (r *replayer) run(ctx context.Context) error {
	c := r.b.clients[0]
	kind := r.p.w.kind
	name := r.p.w.name

	// Runs: one long-lived session per path.
	sys, err := buildSystem(kind, kind.translated())
	if err == nil {
		err = loadProgram(kind, sys, r.p.progs[0])
	}
	if err != nil {
		return err
	}
	mid, err := r.mgrCreate(ctx, r.p.progs[0])
	if err != nil {
		return err
	}
	hid, err := c.create(ctx, kind)
	if err == nil {
		err = c.load(ctx, kind, hid, r.p.progs[0])
	}
	if err != nil {
		return err
	}
	r.b.sess[0] = hid
	if r.b.ev[0], err = c.openEvents(ctx, hid); err != nil {
		return err
	}
	for _, n := range r.p.runs[0][:replayRuns] {
		op := r.tr.root("run")
		var ran uint64
		r.tr.call(op, "core.run", func() error { ran = sys.Machine.RunCycles(n); return nil }) //nolint:errcheck // cannot fail
		r.tr.end(op)
		if ran != n {
			r.t.check("run", "%s layer run: ran %d of %d", name, ran, n)
		}
		start := time.Now()
		if err := r.mgrRun(ctx, mid, n); err != nil {
			return err
		}
		r.tr.record("mgr.run", start, time.Since(start))
		start = time.Now()
		if _, err := c.run(ctx, r.b.ev[0], hid, n); err != nil {
			return err
		}
		r.tr.record("http.run", start, time.Since(start))
	}
	r.b.dropSessions(ctx)
	if err := r.mgr.Destroy(mid); err != nil {
		return err
	}

	// Lifecycle sequences, the three paths interleaved. The Manager path
	// runs client 0's programs and the HTTP path client 1's, so their
	// parks, which share the fleet's store, never dedupe against each
	// other. The layer path runs client 0's too, on a store of its own,
	// and its park must hash the same as the Manager's: the check that it
	// builds, loads and parks machines as the fleet does.
	for k := 0; k < replaySeqs; k++ {
		lh, err := r.layerSequence(k)
		if err != nil {
			return err
		}
		mh, err := r.mgrSequence(ctx, k)
		if err != nil {
			return err
		}
		if lh != mh {
			r.t.check("park", "%s sequence %d: layer path parked %s, Manager %s", name, k, lh, mh)
		}
		if !r.b.sequence(ctx, r.b.clients[1], k, true) {
			return fmt.Errorf("%s HTTP lifecycle sequence failed", name)
		}
		if r.p.sweepAfter(k) {
			op := r.tr.root("gc")
			_, err := r.tr.call(op, "store.sweep", func() error { _, err := r.lst.Sweep(store.GCPolicy{}); return err })
			r.tr.end(op)
			if err != nil {
				return err
			}
			if _, err := r.mgr.GCStore(0); err != nil {
				return err
			}
		}
	}
	return nil
}

func (r *replayer) mgrCreate(ctx context.Context, program string) (string, error) {
	id, err := r.mgr.Create(r.spec)
	if err != nil {
		return "", err
	}
	if r.p.w.kind == kindDevices {
		_, err = r.mgr.LoadMicrocode(ctx, id, program, "emu")
	} else {
		err = r.mgr.BootSource(ctx, id, program)
	}
	return id, err
}

// mgrRun submits a run and polls it to completion: the Manager offers
// the run's completion to direct callers only through GetRun.
func (r *replayer) mgrRun(ctx context.Context, id string, n uint64) error {
	v, err := r.mgr.SubmitRun(ctx, id, n)
	if err != nil {
		return err
	}
	for v.Status != fleet.RunDone && v.Status != fleet.RunFailed {
		if err := ctx.Err(); err != nil {
			return err
		}
		time.Sleep(20 * time.Microsecond)
		if v, err = r.mgr.GetRun(id, v.ID); err != nil {
			return err
		}
	}
	if v.Status != fleet.RunDone || v.Result == nil || v.Result.Ran != n {
		r.t.check("run", "%s manager run %s: status %s", r.p.w.name, v.ID, v.Status)
	}
	return nil
}

// mgrSequence is one lifecycle sequence by direct Manager calls. It
// returns its park's hash.
func (r *replayer) mgrSequence(ctx context.Context, k int) (string, error) {
	timed := func(op string, fn func() error) error {
		start := time.Now()
		err := fn()
		r.tr.record("mgr."+op, start, time.Since(start))
		return err
	}
	var id, fork string
	var pr, again fleet.ParkResult
	var before, after fleet.State
	err := timed("create", func() (err error) {
		id, err = r.mgrCreate(ctx, r.p.seqProgram(0, k))
		return err
	})
	if err == nil {
		err = r.mgrRun(ctx, id, shortRun(r.p.w.shortRun, 0, k))
	}
	if err == nil {
		before, err = r.mgr.ReadState(ctx, id)
	}
	if err == nil {
		err = timed("park", func() (err error) { pr, err = r.parkRetry(id); return err })
	}
	if err == nil {
		err = timed("revive", func() (err error) { after, err = r.mgr.ReadState(ctx, id); return err })
	}
	if err == nil {
		err = timed("fork", func() (err error) { fork, err = r.mgr.CreateFrom(pr.Snapshot); return err })
	}
	if err == nil {
		again, err = r.parkRetry(fork)
	}
	if err != nil {
		return "", err
	}
	same := after.Cycle == before.Cycle && slices.Equal(after.Stack, before.Stack)
	if !after.Parked || !same || again.Snapshot != pr.Snapshot {
		r.t.check("revive", "%s manager sequence %d: revived %v/%d, re-park %s of %s", r.p.w.name, k, after.Parked, after.Cycle, again.Snapshot, pr.Snapshot)
	}
	return pr.Snapshot, errors.Join(r.mgr.Destroy(id), r.mgr.Destroy(fork))
}

// parkRetry parks through the Manager, retrying while the worker still
// holds the session after its last operation.
func (r *replayer) parkRetry(id string) (fleet.ParkResult, error) {
	for {
		pr, err := r.mgr.Park(id)
		if !errors.Is(err, fleet.ErrBusy) {
			return pr, err
		}
		time.Sleep(50 * time.Microsecond)
	}
}
