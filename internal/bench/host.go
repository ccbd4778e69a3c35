package bench

import (
	"fmt"
	"runtime"
	"strings"
	"time"

	"dorado/internal/bitblt"
	"dorado/internal/core"
	"dorado/internal/obs"
)

// This file measures *host* performance — how fast the simulator itself
// runs on the machine executing it — as opposed to the simulated §7 claims
// the E-experiments reproduce. Each workload runs on three execution paths:
// the predecoded hot loop (the default), the reference interpreter
// (Config.Reference: decode the packed microword from scratch every cycle
// and scan all 16 device slots, the seed simulator's behavior), and the
// predecoded loop with an observability recorder attached. The
// predecoded/reference ratio is the predecode speedup recorded in
// BENCH_SIM.json; the predecoded/instrumented ratio is the metrics-on
// overhead the bench guard bounds (see guard.go).

// Measurement paths.
const (
	PathPredecoded   = "predecoded"   // the default hot loop
	PathReference    = "reference"    // per-cycle decode (seed behavior)
	PathInstrumented = "instrumented" // hot loop + obs.Recorder attached
	PathTranslated   = "translated"   // superblock translation (core.Translation)
	PathProfiled     = "profiled"     // hot loop + core.Profiler attached
)

// HostWorkload is one host-throughput scenario. Build constructs a machine
// under cfg and returns a run function that advances the simulation by up
// to budget cycles, returning the cycles actually simulated — so the timed
// region excludes assembly and machine construction. The machine is
// returned alongside so the instrumented path can attach a recorder.
type HostWorkload struct {
	ID    string
	Name  string
	Build func(cfg core.Config) (run func(budget uint64) (uint64, error), m *core.Machine, err error)
}

// HostWorkloads returns the §7 workload families used for host-throughput
// measurement: the emulator mix, the disk transfer idiom, fast I/O at full
// memory bandwidth, and BitBlt.
func HostWorkloads() []HostWorkload {
	return []HostWorkload{
		{ID: "emulator", Name: "Mesa emulator mix (IFU dispatch, frame load/store, branch)", Build: buildHostEmulator},
		{ID: "disk", Name: "Disk transfer, 3 cycles per 2 words (§7)", Build: buildHostDisk},
		{ID: "fastio", Name: "Fast I/O display at full memory bandwidth (§7)", Build: buildHostFastIO},
		{ID: "bitblt", Name: "BitBlt merge, src/dst/filter (§7)", Build: buildHostBitBlt},
	}
}

// hostRunner adapts a machine-level workload builder (workloads.go) to the
// host-measurement shape: the timed region is RunCycles only.
func hostRunner(build func(core.Config) (*core.Machine, error)) func(core.Config) (func(uint64) (uint64, error), *core.Machine, error) {
	return func(cfg core.Config) (func(uint64) (uint64, error), *core.Machine, error) {
		m, err := build(cfg)
		if err != nil {
			return nil, nil, err
		}
		return func(budget uint64) (uint64, error) { return m.RunCycles(budget), nil }, m, nil
	}
}

var (
	buildHostEmulator = hostRunner(BuildEmulatorMachine)
	buildHostDisk     = hostRunner(BuildDiskMachine)
	buildHostFastIO   = hostRunner(BuildFastIOMachine)
)

// buildHostBitBlt runs back-to-back screen-scale merges; the machine's
// cycle counter accumulates across blits, so run consumes its budget in
// whole-blit units.
func buildHostBitBlt(cfg core.Config) (func(uint64) (uint64, error), *core.Machine, error) {
	ps, err := bitblt.Build()
	if err != nil {
		return nil, nil, err
	}
	m, err := core.New(cfg)
	if err != nil {
		return nil, nil, err
	}
	p := bitblt.Params{
		Src: 0x10000, Dst: 0x40000, WidthWords: 64, Height: 64,
		SrcPitch: 64, DstPitch: 64, Op: bitblt.Merge, Filter: 0xAAAA,
	}
	for a := p.Src; a < p.Src+uint32(p.SrcPitch*p.Height); a++ {
		m.Mem().Poke(a, uint16(a*2654435761))
	}
	return func(budget uint64) (uint64, error) {
		var done uint64
		for done < budget {
			c, err := ps.Run(m, p)
			if err != nil {
				return done, err
			}
			done += c
		}
		return done, nil
	}, m, nil
}

// HostResult is one (workload, path) measurement.
type HostResult struct {
	Workload       string  `json:"workload"`
	Path           string  `json:"path"` // PathPredecoded, PathReference, or PathInstrumented
	SimCycles      uint64  `json:"sim_cycles"`
	HostSeconds    float64 `json:"host_seconds"`
	CyclesPerSec   float64 `json:"cycles_per_sec"`
	NsPerCycle     float64 `json:"ns_per_cycle"`
	AllocsPerCycle float64 `json:"allocs_per_cycle"`
}

// MeasureHost times one workload on one path for roughly budget simulated
// cycles, reporting host throughput and allocation rate.
func MeasureHost(w HostWorkload, path string, budget uint64) (HostResult, error) {
	run, m, err := w.Build(core.Config{
		Reference:   path == PathReference,
		Translation: core.Translation{Enable: path == PathTranslated},
	})
	if err != nil {
		return HostResult{}, err
	}
	if path == PathInstrumented {
		// The recorder a long measurement run would realistically wear:
		// default histogram/counter setup, bounded span and timeline
		// buffers (overflow is counted, not stored).
		m.SetRecorder(obs.NewRecorder())
	}
	if path == PathProfiled {
		m.SetProfiler(core.NewProfiler())
	}
	// Warm up: caches, device queues, and the host branch predictor.
	if _, err := run(budget / 10); err != nil {
		return HostResult{}, err
	}
	runtime.GC()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	start := time.Now()
	cycles, err := run(budget)
	elapsed := time.Since(start)
	runtime.ReadMemStats(&after)
	if err != nil {
		return HostResult{}, err
	}
	if cycles == 0 {
		return HostResult{}, fmt.Errorf("bench: workload %s simulated no cycles", w.ID)
	}
	sec := elapsed.Seconds()
	return HostResult{
		Workload:       w.ID,
		Path:           path,
		SimCycles:      cycles,
		HostSeconds:    sec,
		CyclesPerSec:   float64(cycles) / sec,
		NsPerCycle:     sec * 1e9 / float64(cycles),
		AllocsPerCycle: float64(after.Mallocs-before.Mallocs) / float64(cycles),
	}, nil
}

// FleetPoint is one fleet-scaling measurement: aggregate simulator
// throughput with Sessions machines running concurrently on Workers
// worker goroutines (see internal/fleet.MeasureScaling, recorded by
// simbench -fleet). Scaling is CyclesPerSec over the one-session point's
// CyclesPerSec — the multi-tenancy speedup the fleet service exists for.
type FleetPoint struct {
	Sessions int `json:"sessions"`
	Workers  int `json:"workers"`
	// Gomaxprocs is the host parallelism available when the point was
	// measured; a point with Gomaxprocs < Sessions measured queueing, not
	// scaling (simbench warns when recording one).
	Gomaxprocs   int     `json:"gomaxprocs,omitempty"`
	SimCycles    uint64  `json:"sim_cycles"`
	HostSeconds  float64 `json:"host_seconds"`
	CyclesPerSec float64 `json:"cycles_per_sec"`
	Scaling      float64 `json:"scaling_vs_one"`
	// MetricsCyclesPerSec is the aggregate throughput of the same
	// configuration with observability recorders attached (Spec.Metrics);
	// zero when the instrumented variant was not measured. The bench
	// guard's FleetMetricsOn budget bounds CyclesPerSec over this.
	MetricsCyclesPerSec float64 `json:"metrics_cycles_per_sec,omitempty"`
}

// HostReport is the BENCH_SIM.json document: every path across every
// workload plus the per-workload predecode speedup (predecoded over
// reference cycles/sec) and metrics-on overhead (predecoded over
// instrumented; 1.0 means free). Reports written before the instrumented
// path existed simply lack those results and the overhead map; Fleet is
// present only when simbench ran with -fleet (older reports carry none).
type HostReport struct {
	GoVersion    string             `json:"go_version"`
	GOOS         string             `json:"goos"`
	GOARCH       string             `json:"goarch"`
	CyclesPerRun uint64             `json:"cycles_per_run"`
	Results      []HostResult       `json:"results"`
	Speedup      map[string]float64 `json:"speedup"`
	Overhead     map[string]float64 `json:"overhead,omitempty"`
	// Translation is the per-workload superblock-translation speedup
	// (translated over predecoded cycles/sec, same run). Reports written
	// before the translated path existed lack it.
	Translation map[string]float64 `json:"translation,omitempty"`
	// ProfOverhead is the per-workload profiler-on cost (predecoded over
	// profiled cycles/sec, same run; 1.0 means free). Reports written
	// before the profiled path existed lack it.
	ProfOverhead map[string]float64 `json:"prof_overhead,omitempty"`
	Fleet        []FleetPoint       `json:"fleet,omitempty"`
}

// Result returns the measurement for (workload, path), or nil.
func (r *HostReport) Result(workload, path string) *HostResult {
	for i := range r.Results {
		if r.Results[i].Workload == workload && r.Results[i].Path == path {
			return &r.Results[i]
		}
	}
	return nil
}

// HostTable renders a report as a workload × path table (one column per
// execution path, in Mcycles/sec) with the derived ratios, the layout
// benchtab -host prints. Paths absent from the report (older files) render
// as "-", so a pre-translation BENCH_SIM.json still formats cleanly.
func (r *HostReport) HostTable() string {
	var b strings.Builder
	paths := []string{PathPredecoded, PathReference, PathInstrumented, PathTranslated, PathProfiled}
	fmt.Fprintf(&b, "host throughput, Mcycles/sec (%s %s/%s, %d cycles per run)\n",
		r.GoVersion, r.GOOS, r.GOARCH, r.CyclesPerRun)
	fmt.Fprintf(&b, "%-10s", "workload")
	for _, p := range paths {
		fmt.Fprintf(&b, " %12s", p)
	}
	fmt.Fprintf(&b, " %9s %9s %11s %9s\n", "speedup", "metrics", "translated", "prof")
	for _, w := range HostWorkloads() {
		fmt.Fprintf(&b, "%-10s", w.ID)
		for _, p := range paths {
			if res := r.Result(w.ID, p); res != nil {
				fmt.Fprintf(&b, " %12.1f", res.CyclesPerSec/1e6)
			} else {
				fmt.Fprintf(&b, " %12s", "-")
			}
		}
		ratio := func(m map[string]float64, id string) string {
			if v, ok := m[id]; ok && v > 0 {
				return fmt.Sprintf("%.2fx", v)
			}
			return "-"
		}
		fmt.Fprintf(&b, " %9s %9s %11s %9s\n",
			ratio(r.Speedup, w.ID), ratio(r.Overhead, w.ID), ratio(r.Translation, w.ID),
			ratio(r.ProfOverhead, w.ID))
	}
	return b.String()
}

// RunHostReport measures every workload on all four paths, best of reps
// runs each. Host throughput on shared machines jitters downward
// (scheduler preemption, frequency scaling), so each path's result is the
// best of reps measurements — the steadier estimator of what the
// simulator can sustain — and the reps are interleaved across paths so a
// contention episode degrades all paths alike instead of silently skewing
// one side of a ratio the bench guard checks.
func RunHostReport(budget uint64, reps int) (HostReport, error) {
	if reps < 1 {
		reps = 1
	}
	rep := HostReport{
		GoVersion:    runtime.Version(),
		GOOS:         runtime.GOOS,
		GOARCH:       runtime.GOARCH,
		CyclesPerRun: budget,
		Speedup:      map[string]float64{},
		Overhead:     map[string]float64{},
		Translation:  map[string]float64{},
		ProfOverhead: map[string]float64{},
	}
	paths := []string{PathPredecoded, PathReference, PathInstrumented, PathTranslated, PathProfiled}
	for _, w := range HostWorkloads() {
		best := map[string]HostResult{}
		for i := 0; i < reps; i++ {
			for _, path := range paths {
				r, err := MeasureHost(w, path, budget)
				if err != nil {
					return rep, fmt.Errorf("bench: %s (%s): %w", w.ID, path, err)
				}
				if b, ok := best[path]; !ok || r.CyclesPerSec > b.CyclesPerSec {
					best[path] = r
				}
			}
		}
		fast, ref, inst, trans, prof := best[PathPredecoded], best[PathReference],
			best[PathInstrumented], best[PathTranslated], best[PathProfiled]
		rep.Results = append(rep.Results, fast, ref, inst, trans, prof)
		rep.Speedup[w.ID] = fast.CyclesPerSec / ref.CyclesPerSec
		rep.Overhead[w.ID] = fast.CyclesPerSec / inst.CyclesPerSec
		rep.Translation[w.ID] = trans.CyclesPerSec / fast.CyclesPerSec
		rep.ProfOverhead[w.ID] = fast.CyclesPerSec / prof.CyclesPerSec
	}
	return rep, nil
}
