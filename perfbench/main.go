// Command perfbench is the repository's benchmark: it starts a real
// cmd/doradod, drives it over loopback HTTP and prints what a client of
// the fleet service sees, and, in a separate traced run, where that time
// goes layer by layer. Run it from the repository root:
//
//	bash perfbench/run.sh --workload emulate --seed 1 --seconds 20 --trace 0
//
// run.sh builds doradod and this program under .bench_build/ and passes
// its arguments on. The last line of standard output is one JSON object:
// {"correct", "attempted", "failed", "metrics"}. With --trace 0 the
// metrics are the end-to-end metrics of BENCHMARK.json, with --trace 1 the
// per-layer ones. A failed output check makes "correct" false and the
// exit code 1.
//
// # Clients and inputs
//
// Two closed-loop client goroutines, one per host core, each hold one
// keep-alive API connection plus the event stream (SSE) of the session
// they are running. Runs go through the runs resource only: POST
// .../runs, completion read from the stream's "run" event. doradod runs
// on a free loopback port with two workers, idle eviction and the
// periodic GC sweeper off, and its durable store in .bench_build/work,
// which run.sh mounts as a private memory-backed filesystem, and which
// perfbench refuses to use otherwise: on a shared virtual disk, park
// latency varied by up to half from one run to the next. Every input
// comes from --seed: the Mesa programs' constants, depths, trip counts
// and statement order (inputs.go), the order of the run sizes, and where
// in each block of eight lifecycle sequences the store is swept. The
// amount of work is fixed by the workload and --seconds, never by a
// clock, so a faster program finishes the same work sooner.
//
// # Workloads
//
// Every workload has a runs phase and then a lifecycle phase, timed
// separately so long runs and park traffic never share a window; this is
// how every workload reports every end-to-end metric. The runs phase
// gives each client one long-lived session that boots a seeded program
// and then submits fixed-size runs. The lifecycle phase has each client
// repeat: create a session and boot a program, run it once, park it,
// revive it (GET), fork the park hash, park the unchanged fork, destroy
// both; client 0 also sweeps the store (POST /v1/store/gc) once every
// eight sequences. Every fresh park stores new machine state: each
// sequence's program carries its own tag and its run its own length.
//
//   - emulate: Mesa sessions with the superblock translator; long runs
//     dominate. The simulated cycle does almost all the work: IFU
//     dispatch, the predecoded loop and the translator. The store and
//     snapshot layers do no work in its runs phase.
//   - devices: microcode-level sessions with the disk and display
//     controllers running the §7 service routines of
//     examples/microcode/devices.dasm, on the predecoded path. It uses
//     the core differently: device ticks, task switching and fast-I/O
//     storage traffic, with no IFU and no translator, so a translator
//     change should leave it unchanged.
//   - lifecycle: plain Mesa sessions (predecoded); the lifecycle phase
//     dominates, so control-plane work does: snapshot encode, section
//     hashing and writes, manifest rewrite, machine build, restore and
//     HTTP/JSON. It puts parks that write beside parks that dedupe, and
//     store reads beside writes and sweeps on the same store lock.
//
// # End-to-end metrics (--trace 0)
//
// Timings are medians, with a p90 where at least ten samples lie beyond
// it. Failed operations are left out of the timings and counted. The
// host is a virtual machine on a shared machine, and hostspeed.go says
// how the benchmark keeps its tenants out of the figures: each timed
// phase runs in twenty windows of equal work with both clients, its rates
// and CPU costs are medians over the windows, and between windows, with
// doradod idle, a host probe times a fixed kernel of the benchmark's own
// (an interpreter loop in the runs phase, a scattered-access loop in the
// set-up and the lifecycle phase). The probes give the phase's speed
// factor (the kernel's reference CPU time per step over the phase's
// median probe) and each window's baseline steal (the share of CPU time
// the hypervisor withheld from the probes just before and after it; for
// the set-up, from the probes before the five set-ups). Every time below is
// reported with its baseline steal taken out and multiplied by the speed
// factor, a rate the inverse, a CPU cost multiplied by the speed factor
// alone. Steal beyond the baseline during doradod's work is not taken
// out, and no window is dropped: part of that steal follows what doradod
// does. The values as measured, the factors and the steal rates are
// printed before the result line.
//
//	setup_s               launch to every session created, booted and
//	                      warmed; median of five set-ups per run
//	sim_mcps              runs phase: cycles simulated / wall seconds
//	run_p50_ms, _p90_ms   runs phase: POST .../runs to its SSE "run" event
//	cpu_ns_per_cycle      runs phase: doradod CPU time / cycles
//	lifecycle_per_s       lifecycle phase: sequences / wall seconds
//	cpu_ms_per_lifecycle  lifecycle phase: doradod CPU time / sequence
//	create_p50_ms         session create plus boot (or microcode load)
//	park_p50_ms, _p90_ms  fresh parks; the fork's re-park is left out
//	revive_p50_ms, _p90_ms  GET of a parked session
//	fork_p50_ms, _p90_ms  POST /v1/sessions {"from": hash}
//	server_rss_mb         doradod peak RSS (VmHWM) after all the work; on
//	                      devices it follows the display controller's
//	                      queue, which grows with every simulated cycle
//
// # Per-layer metrics (--trace 1) and the end-to-end metric each moves
//
// The traced run first repeats the workload's phases at reduced size
// against doradod with tracing off, reading the server's own counters
// from GET /metrics and GET /debug/vars. It then runs in process: a
// fleet.Manager served by fleet.NewServer on a loopback listener replays
// every workload's operations three ways, over HTTP, by direct Manager
// calls, and by calling each layer's functions in the order the fleet
// calls them, recording a span around each call. A park, for one, is
// state.snapshot, store.hash (the hash is then pinned), store.put (which
// splits the snapshot into sections itself), store.meta and
// store.manifest, as Manager.persist makes them. The layer path takes
// the Manager path's programs and run lengths, and a check requires
// their parks to hash the same. Spans are written as JSON to
// .bench_build/spans-<workload>-<seed>.json at exit; a layer time is the
// median self time of its span name. What recording a span costs is
// logged; it belongs to the benchmark, so it is no metric.
//
//	fleet.queue_ms.run, fleet.service_ms.run   run_p50_ms, run_p90_ms (emulate,
//	                      devices); queue wait should be about 0 with two
//	                      clients on two workers
//	fleet.queue_ms.state  revive_p50_ms (lifecycle): the worker revives a
//	                      parked session before it stamps queue wait
//	fleet.park_busy_retries  park_p90_ms: 409 busy answers retried
//	fleet.rejected        failures on every workload: 429, 503 and 507
//	http.overhead_ms.<op> HTTP latency minus direct Manager latency for
//	                      create, park, revive, fork and run: the
//	                      lifecycle p50s, run_p50_ms slightly
//	core.ns_per_cycle.<m> Machine.RunCycles on machines built like the
//	                      sessions: emulate, emulate_predecoded, devices
//	                      and spin (two-instruction microcode, the
//	                      ablation baseline); devices − spin is the device
//	                      models, emulate_predecoded − spin the IFU and
//	                      emulator dispatch. They move sim_mcps, run_p50_ms
//	                      and cpu_ns_per_cycle on the matching workload
//	core.fused_share.emulate, core.cycles_per_entry.emulate
//	                      translator coverage (TranslationStats): emulate
//	core.allocs_per_mcycle.<m>  heap allocations per simulated Mcycle
//	sim.ipc.<w>, sim.hold_share.<w>, sim.task_switches_per_kcycle.<w>,
//	sim.cache_miss_rate.<w>  simulated statistics; they move no metric,
//	                      and a simulator-speed change leaves them equal
//	build.ms.mesa         dorado.New of a Mesa machine (emulator and masm):
//	                      create_p50_ms, revive_p50_ms, fork_p50_ms and
//	                      lifecycle_per_s; elsewhere only setup_s
//	build.ms.devices      the same for a devices machine
//	boot.ms               System.BootSource (mesac): create_p50_ms
//	masm.load_ms          microcode assembly and load: create_p50_ms on devices
//	state.snapshot_ms, state.snapshot_kib
//	                      park_p50_ms, park_p90_ms, cpu_ms_per_lifecycle
//	state.split_ms        one state.Split of a parked snapshot, timed on
//	                      its own after the park: the split store.put
//	                      contains. Same metrics
//	store.hash_ms         store.Hash of the snapshot before the put. Same
//	                      metrics
//	state.restore_ms      revive_p50_ms, fork_p50_ms
//	store.put_ms.fresh, store.new_kib_per_park, store.files_per_park,
//	store.meta_ms, store.manifest_ms   park_p50_ms, park_p90_ms
//	store.put_ms.dedupe, store.dedupe_share   lifecycle_per_s
//	store.get_ms          revive_p50_ms, fork_p50_ms
//	store.sweep_ms        park_p90_ms (a sweep holds the store lock) and
//	                      lifecycle_per_s
//	server.alloc_kib_per_op, server.gc_per_s   server_rss_mb and the cpu_*
//	                      metrics on every workload
//
// # Output checks
//
// Every run reports "ran" equal to the cycles requested; a revived
// session's cycle count and stack equal the parked ones; a fork's equal
// its donor's; re-parking the unchanged fork returns the donor's hash;
// and, in the traced run, each workload machine's simulated statistics,
// memory statistics and snapshot are identical on the predecoded and
// translated paths, and the layer path's parks hash as the Manager's.
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"syscall"
	"time"
)

type options struct {
	workload string
	seed     int64
	seconds  int
	trace    int
	doradod  string
	workdir  string
	spans    string
	repo     string
}

// result is the benchmark's last line of output.
type result struct {
	Correct   bool    `json:"correct"`
	Attempted int     `json:"attempted"`
	Failed    int     `json:"failed"`
	Metrics   metrics `json:"metrics"`
}

// tmpfsMagic is the statfs type of a tmpfs mount (TMPFS_MAGIC).
const tmpfsMagic = 0x01021994

// deadline bounds one benchmark run, leaving room under the three
// minutes a run may take.
const deadline = 170 * time.Second

func main() {
	var o options
	flag.StringVar(&o.workload, "workload", "", "workload: emulate, devices or lifecycle")
	flag.Int64Var(&o.seed, "seed", 1, "seed of every generated input")
	flag.IntVar(&o.seconds, "seconds", 20, "sizes the fixed amount of work to take about this long")
	flag.IntVar(&o.trace, "trace", 0, "0: end-to-end metrics; 1: traced run with per-layer metrics")
	flag.StringVar(&o.doradod, "doradod", "", "path of the built cmd/doradod binary")
	flag.StringVar(&o.workdir, "workdir", ".bench_build/work", "directory for the durable stores")
	flag.StringVar(&o.spans, "spans", ".bench_build", "directory the traced run writes its spans to")
	flag.StringVar(&o.repo, "repo", ".", "repository root")
	flag.Parse()

	res, err := run(o)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	if err := json.NewEncoder(os.Stdout).Encode(res); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	if !res.Correct {
		os.Exit(1)
	}
}

func run(o options) (result, error) {
	w, err := findWorkload(o.workload)
	if err != nil {
		return result{}, err
	}
	if o.seconds < 1 || (o.trace != 0 && o.trace != 1) {
		return result{}, errors.New("--seconds must be positive and --trace 0 or 1")
	}
	if o.doradod == "" {
		return result{}, errors.New("--doradod is required (perfbench/run.sh builds it)")
	}
	if err := os.MkdirAll(o.workdir, 0o755); err != nil {
		return result{}, err
	}
	// Stores on a shared virtual disk would time the disk, not doradod.
	var fs syscall.Statfs_t
	if err := syscall.Statfs(o.workdir, &fs); err != nil {
		return result{}, err
	}
	if fs.Type != tmpfsMagic {
		return result{}, fmt.Errorf("%s is not a memory-backed filesystem (perfbench/run.sh mounts one)", o.workdir)
	}
	ctx, cancel := context.WithTimeout(context.Background(), deadline)
	defer cancel()

	var m metrics
	var t *tally
	if o.trace == 1 {
		m, t, err = runTraced(ctx, o, w, os.Stdout)
	} else {
		m, t, err = runE2E(ctx, o, w, os.Stdout)
	}
	if err != nil {
		if t != nil {
			t.report(os.Stderr, "perfbench:")
		}
		return result{}, err
	}
	attempted, failed := t.totals()
	return result{Correct: t.checks == 0, Attempted: attempted, Failed: failed, Metrics: m}, nil
}
