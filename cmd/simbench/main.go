// Simbench measures host performance: how many simulated Dorado cycles per
// second the simulator sustains on the machine running it, across the §7
// workload families (emulator mix, disk, fast I/O, BitBlt). Each workload
// runs five times — on the predecoded hot loop, on the reference
// interpreter (per-cycle decode, the pre-optimization baseline), on the
// hot loop with an observability recorder attached, on the superblock
// translator (hot microcode traces fused into Go closures), and on the hot
// loop with a microarchitectural profiler attached. The report records the
// five measurements; simbench prints the ratios taken from them (the
// predecode speedup, the metrics-on overhead, the translated speedup, and
// the profiler-on overhead).
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
// BENCH_SIM.json baseline under the bench guard's budgets (constants in
// internal/bench, not flags), re-measuring on failure up to three times in
// all. The guard runs inside simbench, not in a separate binary: function
// placement differs between binaries, which alone shifts the hot loop's
// predecode ratio by more than the 3% budget — baseline and current must
// come from the same executable to be comparable.
//
// With -fleet the report additionally measures fleet scaling: aggregate
// cycles/sec with 1→N sessions simulated concurrently on the
// internal/fleet worker pool (GOMAXPROCS workers), the multi-tenant
// throughput cmd/doradod serves. Each session count is measured plain and
// then with every session carrying an observability recorder
// (Spec.Metrics); the instrumented rate lands in the point's
// metrics_cycles_per_sec, which the guard's fleet metrics-on budget
// bounds. Points also record GOMAXPROCS, and simbench warns when it is
// smaller than the session count (such a point measures queueing, not
// scaling). Without -fleet, an existing fleet section in the -o file is
// carried over into the new one unchanged, so single-machine runs do not
// erase the recorded scaling curve; the guard judges only what this run
// measured, never a carried-over section.
//
// Usage:
//
//	simbench                         print the report, write BENCH_SIM.json
//	simbench -cycles 5000000         longer runs (steadier numbers)
//	simbench -o path.json            write elsewhere ("" skips the file)
//	simbench -path translated        measure one path only, report to stdout
//	simbench -guard -o current.json  CI mode: measure, then enforce budgets
//	simbench -fleet                  also measure 1→8-session fleet scaling
package main

import (
	"flag"
	"fmt"
	"os"
	"runtime"
	"slices"

	"dorado/internal/bench"
	"dorado/internal/fleet"
)

const (
	baselinePath = "BENCH_SIM.json" // the committed report -guard judges against
	attempts     = 3                // with -guard: measurements before a failure is final
)

func main() {
	cycles := flag.Uint64("cycles", 2_000_000, "simulated cycles per (workload, path) measurement")
	reps := flag.Int("reps", 3, "measurements per (workload, path); the fastest is kept")
	out := flag.String("o", baselinePath, "output JSON path (empty: stdout report only)")
	guard := flag.Bool("guard", false, "check the report against "+baselinePath+" and exit nonzero on regression")
	profOut := flag.String("profile", "", "also run the microarchitectural profiler over every workload and write the per-workload profiles (prof.BenchReport JSON) here; view with cmd/profview")
	onePath := flag.String("path", "", "measure only this path (predecoded, reference, instrumented, translated, profiled); no ratios, no report file")
	doFleet := flag.Bool("fleet", false, "also measure fleet scaling (aggregate cycles/sec, 1→N sessions)")
	fleetMax := flag.Int("fleet-sessions", 8, "with -fleet: largest session count (doubling from 1)")
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
			fatalf("-path measures one side of every ratio; it cannot be combined with -guard")
		}
		if !slices.Contains(bench.HostPaths(), *onePath) {
			fatalf("unknown path %q", *onePath)
		}
		rep, err := bench.RunHostReport(*cycles, *reps, []string{*onePath})
		if err != nil {
			fatalf("%v", err)
		}
		printResults(rep)
		return
	}

	var baseline *bench.HostReport
	if *guard {
		var err error
		if baseline, err = bench.ReadHostReportFile(baselinePath); err != nil {
			fatalf("baseline: %v", err)
		}
	}

	if *profOut != "" {
		prep, err := bench.RunProfileReport(*cycles)
		if err != nil {
			fatalf("profile: %v", err)
		}
		if err := bench.WriteJSONFile(*profOut, prep); err != nil {
			fatalf("profile: %v", err)
		}
		fmt.Printf("wrote %s (per-workload profiles; view with profview)\n", *profOut)
	}

	for attempt := 1; ; attempt++ {
		rep, err := bench.RunHostReport(*cycles, *reps, bench.HostPaths())
		if err != nil {
			fatalf("%v", err)
		}
		printResults(rep)
		fmt.Println()
		for _, w := range bench.HostWorkloads() {
			ratio := func(num, den string) float64 { return rep.Ratio(w.ID, num, den) }
			fmt.Printf("%-10s speedup %.2fx   metrics-on overhead %.1f%%   translated %.2fx   prof-on overhead %.1f%%\n",
				w.ID, ratio(bench.PathPredecoded, bench.PathReference),
				100*(ratio(bench.PathPredecoded, bench.PathInstrumented)-1),
				ratio(bench.PathTranslated, bench.PathPredecoded),
				100*(ratio(bench.PathPredecoded, bench.PathProfiled)-1))
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
			if rep.Fleet, err = fleet.MeasureScaling(sizes); err != nil {
				fatalf("fleet: %v", err)
			}
			fmt.Printf("\n%-10s %8s %14s %10s %12s\n", "fleet", "workers", "cycles/sec", "scaling", "metrics-on")
			for _, p := range rep.Fleet {
				fmt.Printf("%-10d %8d %14.0f %9.2fx %11.1f%%\n", p.Sessions, p.Workers, p.CyclesPerSec, p.Scaling,
					100*(p.CyclesPerSec/p.MetricsCyclesPerSec-1))
			}
		}

		// Judge before a carried-over fleet section joins the report: the
		// guard checks only what this run measured.
		var checks []bench.GuardCheck
		ok := true
		if *guard {
			checks, ok = bench.Guard(baseline, &rep)
		}
		if *out != "" {
			// Keep the recorded scaling curve when this run did not
			// re-measure it.
			if !*doFleet {
				if prev, err := bench.ReadHostReportFile(*out); err == nil {
					rep.Fleet = prev.Fleet
				}
			}
			if err := bench.WriteJSONFile(*out, rep); err != nil {
				fatalf("%v", err)
			}
			fmt.Printf("\nwrote %s\n", *out)
		}
		if !*guard {
			return
		}

		fmt.Printf("\nguard: baseline %s\n", baselinePath)
		for _, c := range checks {
			fmt.Println(c)
		}
		if ok {
			fmt.Println("guard: all checks passed")
			return
		}
		if attempt >= attempts {
			fmt.Fprintln(os.Stderr, "guard: FAILED")
			os.Exit(1)
		}
		fmt.Printf("guard: attempt %d/%d failed, re-measuring\n\n", attempt, attempts)
	}
}

// printResults prints every measurement in rep, one row per (workload,
// path).
func printResults(rep bench.HostReport) {
	fmt.Printf("simbench: %s %s/%s, %d cycles per measurement\n\n",
		rep.GoVersion, rep.GOOS, rep.GOARCH, rep.CyclesPerRun)
	fmt.Printf("%-10s %-12s %14s %10s %12s\n", "workload", "path", "cycles/sec", "ns/cycle", "allocs/cycle")
	for _, r := range rep.Results {
		fmt.Printf("%-10s %-12s %14.0f %10.1f %12.4f\n",
			r.Workload, r.Path, r.CyclesPerSec, r.NsPerCycle, r.AllocsPerCycle)
	}
}

func fatalf(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "simbench: "+format+"\n", args...)
	os.Exit(1)
}
