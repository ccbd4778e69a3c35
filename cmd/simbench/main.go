// Simbench measures host performance: how many simulated Dorado cycles per
// second the simulator sustains on the machine running it, across the §7
// workload families (emulator mix, disk, fast I/O, BitBlt). Each workload
// runs five times — on the predecoded hot loop, on the reference
// interpreter (per-cycle decode, the pre-optimization baseline), on the
// hot loop with an observability recorder attached, on the superblock
// translator (hot microcode traces fused into Go closures), and on the hot
// loop with a microarchitectural profiler attached — and the report
// records all five plus the predecode speedup, the metrics-on overhead,
// the translated speedup, and the profiler-on overhead.
//
// With -profile PATH the profiler additionally runs over every workload on
// the translated path and the per-workload symbolized profiles (cycle
// attribution plus the superblock abort-reason breakdown) are written as a
// JSON artifact for cmd/profview and benchtab -profile.
//
// With -path only the named path is measured (e.g. -path=translated for a
// quick look at the translator alone); ratios need paired measurements, so
// single-path runs print raw throughput only and write no report.
//
// With -guard the report is additionally checked against the committed
// BENCH_SIM.json baseline under bench.DefaultGuardThresholds, re-measuring
// on failure up to -attempts times. The guard runs inside simbench, not in
// a separate binary: function placement differs between binaries, which
// alone shifts the hot loop's predecode ratio by more than the 3% budget —
// baseline and current must come from the same executable to be
// comparable.
//
// Usage:
//
// With -fleet the report additionally measures fleet scaling: aggregate
// cycles/sec with 1→N sessions simulated concurrently on the
// internal/fleet worker pool (GOMAXPROCS workers), the multi-tenant
// throughput cmd/doradod serves. Each session count is measured twice —
// plain, and with every session carrying an observability recorder
// (Spec.Metrics) — and the instrumented rate lands in the point's
// metrics_cycles_per_sec, which the guard's fleet-metrics-on budget
// bounds. Points also record GOMAXPROCS, and simbench warns when it is
// smaller than the session count (such a point measures queueing, not
// scaling). Without -fleet, an existing fleet section in the baseline
// file is carried over unchanged, so single-machine guard runs do not
// erase the recorded scaling curve.
//
//	simbench                         print the report, write BENCH_SIM.json
//	simbench -cycles 5000000         longer runs (steadier numbers)
//	simbench -o path.json            write elsewhere ("" skips the file)
//	simbench -path translated        measure one path only, report to stdout
//	simbench -guard -o current.json  CI mode: measure, then enforce thresholds
//	simbench -fleet                  also measure 1→8-session fleet scaling
package main

import (
	"flag"
	"fmt"
	"os"
	"runtime"

	"dorado/internal/bench"
	"dorado/internal/fleet"
)

func main() {
	cycles := flag.Uint64("cycles", 2_000_000, "simulated cycles per (workload, path) measurement")
	reps := flag.Int("reps", 3, "measurements per (workload, path); the fastest is kept")
	out := flag.String("o", "BENCH_SIM.json", "output JSON path (empty: stdout report only)")
	guard := flag.Bool("guard", false, "check the report against -baseline and exit nonzero on regression")
	baselinePath := flag.String("baseline", "BENCH_SIM.json", "committed baseline report for -guard")
	attempts := flag.Int("attempts", 3, "with -guard: full re-measurements before a failure is final")
	profOut := flag.String("profile", "", "also run the microarchitectural profiler over every workload and write the per-workload profiles (prof.BenchReport JSON) here; view with cmd/profview")
	onePath := flag.String("path", "", "measure only this path (predecoded, reference, instrumented, translated, profiled); no ratios, no report file")
	doFleet := flag.Bool("fleet", false, "also measure fleet scaling (aggregate cycles/sec, 1→N sessions)")
	fleetMax := flag.Int("fleet-sessions", 8, "with -fleet: largest session count (doubling from 1)")
	fleetCycles := flag.Uint64("fleet-cycles", 250_000, "with -fleet: cycles per run operation")
	fleetOps := flag.Int("fleet-ops", 8, "with -fleet: run operations per session")
	flag.Parse()

	// In guard mode the default output would overwrite the baseline being
	// guarded against; only write where -o was given explicitly.
	outSet := false
	flag.Visit(func(f *flag.Flag) {
		if f.Name == "o" {
			outSet = true
		}
	})
	if *guard && !outSet {
		*out = ""
	}

	if *onePath != "" {
		if *guard {
			fmt.Fprintln(os.Stderr, "simbench: -path measures one side of every ratio; it cannot be combined with -guard")
			os.Exit(1)
		}
		switch *onePath {
		case bench.PathPredecoded, bench.PathReference, bench.PathInstrumented, bench.PathTranslated, bench.PathProfiled:
		default:
			fmt.Fprintf(os.Stderr, "simbench: unknown path %q\n", *onePath)
			os.Exit(1)
		}
		fmt.Printf("%-10s %-12s %14s %10s %12s\n", "workload", "path", "cycles/sec", "ns/cycle", "allocs/cycle")
		for _, w := range bench.HostWorkloads() {
			var best bench.HostResult
			for i := 0; i < *reps; i++ {
				r, err := bench.MeasureHost(w, *onePath, *cycles)
				if err != nil {
					fmt.Fprintf(os.Stderr, "simbench: %s: %v\n", w.ID, err)
					os.Exit(1)
				}
				if r.CyclesPerSec > best.CyclesPerSec {
					best = r
				}
			}
			fmt.Printf("%-10s %-12s %14.0f %10.1f %12.4f\n",
				best.Workload, best.Path, best.CyclesPerSec, best.NsPerCycle, best.AllocsPerCycle)
		}
		return
	}

	var baseline *bench.HostReport
	th := bench.DefaultGuardThresholds
	if *guard {
		var err error
		baseline, err = bench.ReadHostReportFile(*baselinePath)
		if err != nil {
			fmt.Fprintf(os.Stderr, "simbench: baseline: %v\n", err)
			os.Exit(1)
		}
	}

	if *profOut != "" {
		prep, err := bench.RunProfileReport(*cycles)
		if err != nil {
			fmt.Fprintf(os.Stderr, "simbench: profile: %v\n", err)
			os.Exit(1)
		}
		if err := bench.WriteJSONFile(*profOut, prep); err != nil {
			fmt.Fprintf(os.Stderr, "simbench: profile: %v\n", err)
			os.Exit(1)
		}
		fmt.Printf("wrote %s (per-workload profiles; view with profview)\n", *profOut)
	}

	tries := 1
	if *guard {
		tries = *attempts
		if tries < 1 {
			tries = 1
		}
	}
	for attempt := 1; ; attempt++ {
		rep, err := bench.RunHostReport(*cycles, *reps)
		if err != nil {
			fmt.Fprintf(os.Stderr, "simbench: %v\n", err)
			os.Exit(1)
		}

		fmt.Printf("simbench: %s %s/%s, %d cycles per measurement\n\n",
			rep.GoVersion, rep.GOOS, rep.GOARCH, rep.CyclesPerRun)
		fmt.Printf("%-10s %-12s %14s %10s %12s\n", "workload", "path", "cycles/sec", "ns/cycle", "allocs/cycle")
		for _, r := range rep.Results {
			fmt.Printf("%-10s %-12s %14.0f %10.1f %12.4f\n",
				r.Workload, r.Path, r.CyclesPerSec, r.NsPerCycle, r.AllocsPerCycle)
		}
		fmt.Println()
		for _, w := range bench.HostWorkloads() {
			fmt.Printf("%-10s speedup %.2fx   metrics-on overhead %.1f%%   translated %.2fx   prof-on overhead %.1f%%\n",
				w.ID, rep.Speedup[w.ID], 100*(rep.Overhead[w.ID]-1), rep.Translation[w.ID],
				100*(rep.ProfOverhead[w.ID]-1))
		}

		if *doFleet {
			var sizes []int
			for n := 1; n <= *fleetMax; n *= 2 {
				sizes = append(sizes, n)
			}
			if procs := runtime.GOMAXPROCS(0); procs < *fleetMax {
				fmt.Fprintf(os.Stderr,
					"simbench: warning: GOMAXPROCS=%d < %d sessions; large fleet points measure queueing, not scaling\n",
					procs, *fleetMax)
			}
			opt := fleet.ScalingOptions{
				Sessions:      sizes,
				CyclesPerOp:   *fleetCycles,
				OpsPerSession: *fleetOps,
			}
			points, err := fleet.MeasureScaling(opt)
			if err != nil {
				fmt.Fprintf(os.Stderr, "simbench: fleet: %v\n", err)
				os.Exit(1)
			}
			opt.Metrics = true
			instr, err := fleet.MeasureScaling(opt)
			if err != nil {
				fmt.Fprintf(os.Stderr, "simbench: fleet (metrics): %v\n", err)
				os.Exit(1)
			}
			for i := range points {
				if i < len(instr) && instr[i].Sessions == points[i].Sessions {
					points[i].MetricsCyclesPerSec = instr[i].CyclesPerSec
				}
			}
			rep.Fleet = points
			fmt.Printf("\n%-10s %8s %14s %10s %12s\n", "fleet", "workers", "cycles/sec", "scaling", "metrics-on")
			for _, p := range points {
				over := "n/a"
				if p.MetricsCyclesPerSec > 0 {
					over = fmt.Sprintf("%.1f%%", 100*(p.CyclesPerSec/p.MetricsCyclesPerSec-1))
				}
				fmt.Printf("%-10d %8d %14.0f %9.2fx %12s\n", p.Sessions, p.Workers, p.CyclesPerSec, p.Scaling, over)
			}
		} else if *out != "" {
			// Keep the recorded scaling curve when this run did not
			// re-measure it.
			if prev, err := bench.ReadHostReportFile(*out); err == nil && len(prev.Fleet) > 0 {
				rep.Fleet = prev.Fleet
			}
		}

		if *out != "" {
			if err := bench.WriteJSONFile(*out, rep); err != nil {
				fmt.Fprintf(os.Stderr, "simbench: %v\n", err)
				os.Exit(1)
			}
			fmt.Printf("\nwrote %s\n", *out)
		}
		if !*guard {
			return
		}

		checks, ok := bench.Guard(baseline, &rep, th)
		fmt.Printf("\nguard: baseline %s, thresholds off %.0f%% on %.0f%% fleet-on %.0f%% translated %.1fx on %d+ workloads prof-on %.0f%%\n",
			*baselinePath, 100*th.MetricsOff, 100*th.MetricsOn, 100*th.FleetMetricsOn,
			th.TranslatedMin, th.TranslatedWorkloads, 100*th.ProfOn)
		for _, c := range checks {
			fmt.Println(c)
		}
		if ok {
			fmt.Println("guard: all checks passed")
			return
		}
		if attempt >= tries {
			fmt.Fprintln(os.Stderr, "guard: FAILED")
			os.Exit(1)
		}
		fmt.Printf("guard: attempt %d/%d failed, re-measuring\n\n", attempt, tries)
	}
}
