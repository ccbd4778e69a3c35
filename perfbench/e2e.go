package main

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"sync"
	"time"
)

// sessionKind is the machine a workload's sessions simulate.
type sessionKind int

const (
	kindMesa           sessionKind = iota // Mesa emulator, predecoded path
	kindMesaTranslated                    // Mesa emulator, superblock translator on
	kindDevices                           // microcode level, disk and display controllers
)

// translated reports whether sessions of kind k run the superblock
// translator.
func (k sessionKind) translated() bool { return k == kindMesaTranslated }

// createBody is the POST /v1/sessions request for a session of kind k.
func (k sessionKind) createBody() map[string]any {
	switch k {
	case kindMesaTranslated:
		return map[string]any{"language": "mesa", "translation": true}
	case kindDevices:
		return map[string]any{"devices": []map[string]string{
			{"name": "disk", "start": "disk"},
			{"name": "display", "start": "disp"},
		}}
	}
	return map[string]any{"language": "mesa"}
}

// workload is one traffic mix. Every workload has a runs phase and, after
// it, a lifecycle phase; the two never share a timed window. The session
// kind and the weight of each phase are what set workloads apart.
type workload struct {
	name string
	kind sessionKind
	// runCycles is the mean size of a runs-phase run.
	runCycles uint64
	// runsPerSecond and seqPerSecond size the phases: runs and lifecycle
	// sequences per client for each second of --seconds, calibrated so a
	// run measures about --seconds on a 2-core host.
	runsPerSecond, seqPerSecond float64
	// shortRun is the base size of the run inside a lifecycle sequence.
	shortRun uint64
}

var workloads = []workload{
	{name: "emulate", kind: kindMesaTranslated, runCycles: 2_500_000, runsPerSecond: 2.8, seqPerSecond: 6, shortRun: 200_000},
	{name: "devices", kind: kindDevices, runCycles: 1_200_000, runsPerSecond: 3.6, seqPerSecond: 6, shortRun: 200_000},
	{name: "lifecycle", kind: kindMesa, runCycles: 500_000, runsPerSecond: 5.6, seqPerSecond: 6.4, shortRun: 200_000},
}

func findWorkload(name string) (workload, error) {
	for _, w := range workloads {
		if w.name == name {
			return w, nil
		}
	}
	return workload{}, fmt.Errorf("unknown workload %q (emulate, devices, lifecycle)", name)
}

// minPerClient is the least number of runs and of lifecycle sequences a
// client makes in a timed run: 120 samples put 12 beyond the p90.
const minPerClient = 60

// gcBlock is the number of lifecycle sequences per store sweep.
const gcBlock = 8

// plan is a workload's seeded inputs for one run.
type plan struct {
	w     workload
	seed  int64
	runs  [2][]uint64 // runs-phase run sizes per client
	seqs  int         // lifecycle sequences per client
	gcAt  int         // client 0 sweeps the store after sequences gcAt mod gcBlock
	progs [2]string   // runs-phase program per client
	dasm  string      // devices microcode
}

func makePlan(w workload, seed int64, seconds int, scale float64, least int, dasm string) plan {
	p := plan{w: w, seed: seed, dasm: dasm}
	n := max(least, int(math.Round(float64(seconds)*w.runsPerSecond*scale)))
	p.seqs = max(least, int(math.Round(float64(seconds)*w.seqPerSecond*scale)))
	for c := range p.runs {
		p.runs[c] = runSizes(newRand(seed, fmt.Sprintf("%s/runs/%d", w.name, c)), n, w.runCycles)
		p.progs[c] = p.program(fmt.Sprintf("runs/%d", c), 1+c)
	}
	// One sweep in every gcBlock sequences, at a seeded place in the
	// block: the phase of the cadence varies with the seed, the number
	// of sweeps does not.
	p.gcAt = newRand(seed, w.name+"/gc").IntN(gcBlock)
	return p
}

// sweepAfter reports whether client 0 sweeps the store after its
// sequence k.
func (p plan) sweepAfter(k int) bool { return k%gcBlock == p.gcAt }

// program returns the microcode of a devices session, or the seeded Mesa
// program of the named stream with tag stored in global 1.
func (p plan) program(stream string, tag int) string {
	if p.w.kind == kindDevices {
		return p.dasm
	}
	return mesaProgram(newRand(p.seed, p.w.name+"/"+stream), tag)
}

// seqProgram is the program of lifecycle sequence k of client c. The tag
// differs for every sequence, so every fresh park stores new state.
func (p plan) seqProgram(c, k int) string {
	return p.program(fmt.Sprintf("lifecycle/%d", c), 100+c*20000+k)
}

// bench drives one doradod through a workload's phases.
type bench struct {
	p       plan
	srv     *server
	store   string
	t       *tally
	clients [2]*client
	sess    [2]string
	ev      [2]*events
	// onOp, when set, also receives every timed lifecycle operation; the
	// traced run records spans through it.
	onOp func(name string, start time.Time, d time.Duration)
}

// both runs fn for the two clients concurrently and returns the first
// error.
func (b *bench) both(fn func(c *client) error) error {
	var wg sync.WaitGroup
	errs := make([]error, len(b.clients))
	for i, c := range b.clients {
		wg.Add(1)
		go func(i int, c *client) {
			defer wg.Done()
			errs[i] = fn(c)
		}(i, c)
	}
	wg.Wait()
	return errors.Join(errs...)
}

// setup launches doradod and brings both clients to the start line: the
// runs-phase session created, booted, subscribed to and warmed by one run
// (the translator has built its blocks), and one untimed lifecycle
// sequence done to warm the store and the park, revive and fork paths.
func (b *bench) setup(ctx context.Context, bin, store string) error {
	if err := os.RemoveAll(store); err != nil {
		return err
	}
	srv, err := startServer(ctx, bin, store)
	if err != nil {
		return err
	}
	b.srv, b.store = srv, store
	for i := range b.clients {
		b.clients[i] = newClient(i, srv.base, b.t)
	}
	return b.both(func(c *client) error {
		id, err := c.create(ctx, b.p.w.kind)
		if err != nil {
			return err
		}
		b.sess[c.id] = id
		if err := c.load(ctx, b.p.w.kind, id, b.p.progs[c.id]); err != nil {
			return err
		}
		if b.ev[c.id], err = c.openEvents(ctx, id); err != nil {
			return err
		}
		if _, err := c.run(ctx, b.ev[c.id], id, b.p.w.runCycles); err != nil {
			return err
		}
		if !b.sequence(ctx, c, b.p.seqs, false) {
			return errors.New("warm-up lifecycle sequence failed")
		}
		return nil
	})
}

// dropSessions closes the runs-phase streams and destroys the sessions.
func (b *bench) dropSessions(ctx context.Context) {
	for i, c := range b.clients {
		if b.ev[i] != nil {
			b.ev[i].close()
			b.ev[i] = nil
		}
		if b.sess[i] != "" && c != nil {
			c.destroy(ctx, b.sess[i]) //nolint:errcheck // counted by the tally
			b.sess[i] = ""
		}
	}
}

// teardown stops the server and removes its store.
func (b *bench) teardown(ctx context.Context) {
	b.dropSessions(ctx)
	for _, c := range b.clients {
		if c != nil {
			c.close()
		}
	}
	if b.srv != nil {
		b.srv.stop()
		b.srv = nil
	}
	os.RemoveAll(b.store) //nolint:errcheck // best effort; the next setup removes it again
}

// window is one timed piece of a phase: its wall time, doradod's CPU
// time, the CPU time the hypervisor withheld from the host meanwhile
// (logged only), and the work it completed.
type window struct {
	wall, cpu, steal time.Duration
	work             float64
}

// phaseWindows is the number of windows of equal work a timed phase is
// cut into. The phase's rates are medians over its windows, so a few
// seconds in which the shared host runs slow move them little.
const phaseWindows = 20

// phase is one timed phase: its windows, the host probes taken before
// the first window and after each (hostspeed.go), and the number of
// latency samples of each kind taken before each window and after the
// last.
type phase struct {
	windows []window
	probes  probes
	marks   []map[string]int
}

// measure runs a phase of n items per client in phaseWindows windows,
// with a probe of kernel kern before the first window and after each,
// while doradod is idle. item does item k of a client and returns the
// work it completed.
func (b *bench) measure(ctx context.Context, n int, kern kernel, item func(c *client, k int) float64) (phase, error) {
	var p phase
	pr, err := hostProbe(kern)
	if err != nil {
		return p, err
	}
	p.probes = append(p.probes, pr)
	p.marks = append(p.marks, b.t.marks())
	for win := 0; win < phaseWindows; win++ {
		lo, hi := win*n/phaseWindows, (win+1)*n/phaseWindows
		var work [len(b.clients)]float64
		cpu0, err := b.srv.cpu()
		steal0, serr := hostSteal()
		if err := errors.Join(err, serr); err != nil {
			return p, err
		}
		start := time.Now()
		err = b.both(func(c *client) error {
			for k := lo; k < hi && ctx.Err() == nil; k++ {
				work[c.id] += item(c, k)
			}
			return ctx.Err()
		})
		w := window{wall: time.Since(start), work: work[0] + work[1]}
		cpu1, cerr := b.srv.cpu()
		steal1, serr := hostSteal()
		pr, perr := hostProbe(kern)
		if err := errors.Join(err, cerr, serr, perr); err != nil {
			return p, err
		}
		w.cpu, w.steal = cpu1-cpu0, steal1-steal0
		p.windows = append(p.windows, w)
		p.probes = append(p.probes, pr)
		p.marks = append(p.marks, b.t.marks())
	}
	return p, nil
}

// baseline returns the share of window i's wall time taken out: the
// steal rate of the probes just before and after it, the CPU time other
// tenants withheld from a load that was not doradod's.
func (p phase) baseline(i int) float64 { return p.probes[i : i+2].stealRate() }

// rates returns the median over the windows of work per wall second, as
// measured and as reported: each window's baseline steal taken out,
// divided by the phase's speed factor.
func (p phase) rates() (raw, reported float64) {
	xs, ys := make([]float64, len(p.windows)), make([]float64, len(p.windows))
	for i, w := range p.windows {
		xs[i] = w.work / w.wall.Seconds()
		ys[i] = xs[i] / (1 - p.baseline(i)) / p.probes.factor()
	}
	return median(xs), median(ys)
}

// cpuPerWork returns the median over the windows of doradod's CPU
// nanoseconds per unit of work, as measured and as reported: multiplied
// by the phase's speed factor.
func (p phase) cpuPerWork() (raw, reported float64) {
	xs := make([]float64, len(p.windows))
	for i, w := range p.windows {
		xs[i] = float64(w.cpu.Nanoseconds()) / w.work
	}
	return median(xs), median(xs) * p.probes.factor()
}

// latencies returns the phase's latency samples of one kind, as
// measured and as reported: each with its window's baseline steal taken
// out and multiplied by the phase's speed factor.
func (p phase) latencies(t *tally, name string) (raw, reported []float64) {
	raw = t.samples(name)
	for i := range p.windows {
		scale := (1 - p.baseline(i)) * p.probes.factor()
		for _, x := range raw[p.marks[i][name]:p.marks[i+1][name]] {
			reported = append(reported, x*scale)
		}
	}
	return raw[p.marks[0][name]:p.marks[len(p.windows)][name]], reported
}

func (p phase) total() (w window) {
	for _, x := range p.windows {
		w.wall += x.wall
		w.cpu += x.cpu
		w.steal += x.steal
		w.work += x.work
	}
	return w
}

// runsPhase submits each client's runs on its long-lived session, one at
// a time. Its work is the cycles the successful runs simulated.
func (b *bench) runsPhase(ctx context.Context) (phase, error) {
	p, err := b.measure(ctx, len(b.p.runs[0]), interp, func(c *client, k int) float64 {
		n := b.p.runs[c.id][k]
		d, err := c.run(ctx, b.ev[c.id], b.sess[c.id], n)
		if err != nil {
			return 0
		}
		c.t.observe("run", d)
		return float64(n)
	})
	b.dropSessions(ctx)
	return p, err
}

// lifecyclePhase runs each client's lifecycle sequences; client 0 also
// sweeps the store at the plan's cadence. Its work is the sequences
// that completed with every check passed.
func (b *bench) lifecyclePhase(ctx context.Context) (phase, error) {
	return b.measure(ctx, b.p.seqs, scatter, func(c *client, k int) float64 {
		done := 0.0
		if b.sequence(ctx, c, k+1, true) {
			done = 1
		}
		if c.id == 0 && b.p.sweepAfter(k) {
			c.do(ctx, "gc", "POST", "/v1/store/gc", map[string]int{"max_age_ms": 0}, nil) //nolint:errcheck // counted by the tally
		}
		return done
	})
}

// sequence is one lifecycle, number k of its client (the warm-up is 0,
// the timed phases count from 1): create and boot a session, run it
// once, park it, revive it, fork the parked snapshot, park the unchanged
// fork and destroy both. It checks that the revived session and the fork
// hold the parked state and that the fork re-parks to the same hash.
// With timed set it records the create, park, revive and fork latencies.
func (b *bench) sequence(ctx context.Context, c *client, k int, timed bool) bool {
	kind := b.p.w.kind
	note := func(name string, since time.Time) {
		if !timed {
			return
		}
		d := time.Since(since)
		c.t.observe(name, d)
		if b.onOp != nil {
			b.onOp(name, since, d)
		}
	}
	var live []string
	defer func() {
		for _, id := range live {
			c.destroy(ctx, id) //nolint:errcheck // counted by the tally
		}
	}()

	start := time.Now()
	id, err := c.create(ctx, kind)
	if err != nil {
		return false
	}
	live = append(live, id)
	if c.load(ctx, kind, id, b.p.seqProgram(c.id, k)) != nil {
		return false
	}
	note("create", start)

	ev, err := c.openEvents(ctx, id)
	if err != nil {
		return false
	}
	_, err = c.run(ctx, ev, id, shortRun(b.p.w.shortRun, c.id, k))
	ev.close()
	if err != nil {
		return false
	}
	before, err := c.state(ctx, "state", id)
	if err != nil {
		return false
	}

	start = time.Now()
	hash, err := c.park(ctx, "park", id)
	if err != nil {
		return false
	}
	note("park", start)

	start = time.Now()
	after, err := c.state(ctx, "revive", id)
	if err != nil {
		return false
	}
	note("revive", start)
	if !after.Parked || !after.same(before) {
		c.t.check("revive", "session %s: revived parked=%v cycle %d stack %v, parked cycle %d stack %v",
			id, after.Parked, after.Cycle, after.Stack, before.Cycle, before.Stack)
		return false
	}

	start = time.Now()
	fork, err := c.fork(ctx, hash)
	if err != nil {
		return false
	}
	note("fork", start)
	live = append(live, fork)
	fst, err := c.state(ctx, "state", fork)
	if err != nil {
		return false
	}
	if !fst.same(before) {
		c.t.check("fork", "fork %s of %s: cycle %d stack %v, donor cycle %d stack %v",
			fork, hash[:12], fst.Cycle, fst.Stack, before.Cycle, before.Stack)
		return false
	}
	again, err := c.park(ctx, "repark", fork)
	if err != nil {
		return false
	}
	if again != hash {
		c.t.check("repark", "fork %s re-parked to %s, donor hash %s", fork, again[:12], hash[:12])
		return false
	}

	ok := true
	for _, id := range live {
		ok = c.destroy(ctx, id) == nil && ok
	}
	live = nil
	return ok
}

// runE2E measures a workload end to end against doradod with tracing off.
// It sets up setups times, keeps the last server for the timed phases and
// reports the median set-up time.
func runE2E(ctx context.Context, o options, w workload, log io.Writer) (metrics, *tally, error) {
	dasm, err := devicesMicrocode(o.repo)
	if err != nil {
		return nil, nil, err
	}
	p := makePlan(w, o.seed, o.seconds, 1, minPerClient, dasm)
	t := newTally()
	b := &bench{p: p, t: t}
	defer b.teardown(context.Background())

	store := filepath.Join(o.workdir, fmt.Sprintf("store-%s-%d", w.name, o.seed))
	const setups = 5
	var setupS []float64
	var setupProbes probes
	for len(setupS) < setups {
		b.teardown(ctx)
		pr, err := hostProbe(scatter)
		if err != nil {
			return nil, t, err
		}
		setupProbes = append(setupProbes, pr)
		start := time.Now()
		if err := b.setup(ctx, o.doradod, store); err != nil {
			return nil, t, fmt.Errorf("setup: %w", err)
		}
		setupS = append(setupS, time.Since(start).Seconds())
	}

	runs, err := b.runsPhase(ctx)
	if err != nil {
		return nil, t, fmt.Errorf("runs phase: %w", err)
	}
	life, err := b.lifecyclePhase(ctx)
	if err != nil {
		return nil, t, fmt.Errorf("lifecycle phase: %w", err)
	}
	peak, err := b.srv.peakRSS()
	if err != nil {
		return nil, t, err
	}
	var st struct {
		SectionsDeduped uint64 `json:"sections_deduped"`
		DedupedBytes    uint64 `json:"deduped_bytes"`
		GCRuns          uint64 `json:"gc_runs"`
	}
	b.clients[0].do(ctx, "store", "GET", "/v1/store", nil, &st) //nolint:errcheck // informational, counted by the tally

	// raw holds the values as measured; m the same with the baseline steal
	// taken out and scaled to the reference host speed (hostspeed.go).
	// Memory is reported as measured.
	raw, m := metrics{}, metrics{}
	set := func(name, unit string, rawV, v float64) { raw.set(name, unit, rawV); m.set(name, unit, v) }
	set("setup_s", "s", median(setupS), median(setupS)*(1-setupProbes.stealRate())*setupProbes.factor())
	rt, lt := runs.total(), life.total()
	if rt.work > 0 {
		r, v := runs.rates()
		set("sim_mcps", "Mcycles/s", r/1e6, v/1e6)
		r, v = runs.cpuPerWork()
		set("cpu_ns_per_cycle", "ns", r, v)
	}
	if lt.work > 0 {
		r, v := life.rates()
		set("lifecycle_per_s", "1/s", r, v)
		r, v = life.cpuPerWork()
		set("cpu_ms_per_lifecycle", "ms", r/1e6, v/1e6)
	}
	for _, op := range []string{"create", "run", "park", "revive", "fork"} {
		ph := life
		if op == "run" {
			ph = runs
		}
		xs, ys := ph.latencies(t, op)
		if len(xs) == 0 {
			continue
		}
		set(op+"_p50_ms", "ms", median(xs), median(ys))
		if op == "create" {
			continue
		}
		if v, ok := p90(ys); ok {
			set(op+"_p90_ms", "ms", quantile(xs, 0.9), v)
		} else {
			fmt.Fprintf(log, "perfbench: %s_p90_ms omitted: %d samples leave fewer than 10 beyond the p90\n", op, len(xs))
		}
	}
	rss := float64(peak) / (1 << 20)
	set("server_rss_mb", "MiB", rss, rss)

	fmt.Fprintf(log, "perfbench: %s seed %d: setups %.3f s; runs phase %d runs, %.1f Mcycles in %.2f s (server cpu %.2f s); lifecycle phase %.0f sequences in %.2f s (server cpu %.2f s)\n",
		w.name, o.seed, setupS, len(t.samples("run")), rt.work/1e6, rt.wall.Seconds(), rt.cpu.Seconds(),
		lt.work, lt.wall.Seconds(), lt.cpu.Seconds())
	fmt.Fprintf(log, "perfbench: samples: run %d, create %d, park %d, revive %d, fork %d\n",
		len(t.samples("run")), len(t.samples("create")), len(t.samples("park")), len(t.samples("revive")), len(t.samples("fork")))
	fmt.Fprintf(log, "perfbench: host: steal rate in the windows %.4f runs, %.4f lifecycle; in the probes (taken out) %.4f set-up, %.4f runs, %.4f lifecycle\n",
		stealShare(rt), stealShare(lt), setupProbes.stealRate(), runs.probes.stealRate(), life.probes.stealRate())
	corr := map[string]map[string]float64{}
	for name, ps := range map[string]probes{"setup": setupProbes, "runs": runs.probes, "lifecycle": life.probes} {
		corr[name] = map[string]float64{"speed_factor": ps.factor(), "probe_steal_rate": ps.stealRate()}
	}
	corr["runs"]["window_steal_rate"], corr["lifecycle"]["window_steal_rate"] = stealShare(rt), stealShare(lt)
	for name, v := range map[string]any{"raw metrics": raw, "corrections": corr} {
		line, err := json.Marshal(v)
		if err != nil {
			return nil, t, err
		}
		fmt.Fprintf(log, "perfbench: %s: %s\n", name, line)
	}
	fmt.Fprintf(log, "perfbench: store: %d sections (%.1f MiB) deduped, %d gc sweeps\n",
		st.SectionsDeduped, float64(st.DedupedBytes)/(1<<20), st.GCRuns)
	t.report(log, "perfbench:")
	return m, t, nil
}

// stealShare returns the share of a window's CPU time the hypervisor
// withheld.
func stealShare(w window) float64 {
	return float64(w.steal) / (float64(w.wall) * float64(runtime.NumCPU()))
}
