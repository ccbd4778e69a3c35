package bench

import (
	"fmt"
	"math"
	"runtime"
	"strings"
	"time"

	"dorado/internal/bitblt"
	"dorado/internal/core"
	"dorado/internal/obs"
)

// This file measures *host* performance — how fast the simulator itself
// runs on the machine executing it — as opposed to the simulated §7 claims
// the E-experiments reproduce. Each workload runs on five execution paths:
// the predecoded hot loop (the default), the reference interpreter
// (Config.Reference: decode the packed microword from scratch every cycle
// and scan all 16 device slots, the seed simulator's behavior), the
// predecoded loop with an observability recorder attached, the superblock
// translator, and the predecoded loop with a profiler attached. The report
// keeps only the measurements; every ratio (the predecode speedup, the
// metrics-on and prof-on costs the bench guard bounds, the translated
// speedup) is taken from them by HostReport.Ratio.

// Measurement paths.
const (
	PathPredecoded   = "predecoded"   // the default hot loop
	PathReference    = "reference"    // per-cycle decode (seed behavior)
	PathInstrumented = "instrumented" // hot loop + obs.Recorder attached
	PathTranslated   = "translated"   // superblock translation (core.Translation)
	PathProfiled     = "profiled"     // hot loop + core.Profiler attached
)

// HostPaths returns every measurement path, in the order a report records
// them.
func HostPaths() []string {
	return []string{PathPredecoded, PathReference, PathInstrumented, PathTranslated, PathProfiled}
}

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
	Path           string  `json:"path"` // one of HostPaths
	SimCycles      uint64  `json:"sim_cycles"`
	HostSeconds    float64 `json:"host_seconds"`
	CyclesPerSec   float64 `json:"cycles_per_sec"`
	NsPerCycle     float64 `json:"ns_per_cycle"`
	AllocsPerCycle float64 `json:"allocs_per_cycle"`
}

// measureHost times one workload on one path for roughly budget simulated
// cycles, reporting host throughput and allocation rate.
func measureHost(w HostWorkload, path string, budget uint64) (HostResult, error) {
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
	// configuration with observability recorders attached (Spec.Metrics).
	// The bench guard bounds it over CyclesPerSec; a point without it
	// fails that check.
	MetricsCyclesPerSec float64 `json:"metrics_cycles_per_sec,omitempty"`
}

// HostReport is the BENCH_SIM.json document: every measured (workload,
// path) result, plus the fleet curve when simbench ran with -fleet. It
// stores no ratio; Ratio takes each one from Results. (Reports written
// before this layout also carry derived ratio maps, which decoding
// ignores.)
type HostReport struct {
	GoVersion    string       `json:"go_version"`
	GOOS         string       `json:"goos"`
	GOARCH       string       `json:"goarch"`
	CyclesPerRun uint64       `json:"cycles_per_run"`
	Results      []HostResult `json:"results"`
	Fleet        []FleetPoint `json:"fleet,omitempty"`
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

// Ratio returns workload's throughput on path num over its throughput on
// path den, both from this report: predecoded over reference is the
// predecode speedup, translated over predecoded the translated speedup,
// instrumented over predecoded what an attached recorder leaves. It is NaN
// when either result is missing, so every comparison with it is false: a
// guard check on a missing path fails, and a table renders it as "-".
func (r *HostReport) Ratio(workload, num, den string) float64 {
	n, d := r.Result(workload, num), r.Result(workload, den)
	if n == nil || d == nil {
		return math.NaN()
	}
	return n.CyclesPerSec / d.CyclesPerSec
}

// HostTable renders a report as a workload × path table (one column per
// execution path, in Mcycles/sec) with the same-run ratios, the layout
// benchtab -host prints. Paths absent from the report (older files) render
// as "-", and so do the ratios that need them.
func (r *HostReport) HostTable() string {
	var b strings.Builder
	paths := HostPaths()
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
		ratio := func(num, den string) string {
			if v := r.Ratio(w.ID, num, den); v > 0 {
				return fmt.Sprintf("%.2fx", v)
			}
			return "-"
		}
		fmt.Fprintf(&b, " %9s %9s %11s %9s\n",
			ratio(PathPredecoded, PathReference), ratio(PathPredecoded, PathInstrumented),
			ratio(PathTranslated, PathPredecoded), ratio(PathPredecoded, PathProfiled))
	}
	return b.String()
}

// RunHostReport measures every workload on each of paths, best of reps
// runs each. Host throughput on shared machines jitters downward
// (scheduler preemption, frequency scaling), so each path's result is the
// best of reps measurements — the steadier estimator of what the
// simulator can sustain — and the reps are interleaved across paths so a
// contention episode degrades all paths alike instead of silently skewing
// one side of a ratio the bench guard checks.
func RunHostReport(budget uint64, reps int, paths []string) (HostReport, error) {
	reps = max(reps, 1)
	rep := HostReport{
		GoVersion:    runtime.Version(),
		GOOS:         runtime.GOOS,
		GOARCH:       runtime.GOARCH,
		CyclesPerRun: budget,
	}
	for _, w := range HostWorkloads() {
		best := make([]HostResult, len(paths))
		for range reps {
			for i, path := range paths {
				r, err := measureHost(w, path, budget)
				if err != nil {
					return rep, fmt.Errorf("bench: %s (%s): %w", w.ID, path, err)
				}
				if r.CyclesPerSec > best[i].CyclesPerSec {
					best[i] = r
				}
			}
		}
		rep.Results = append(rep.Results, best...)
	}
	return rep, nil
}
