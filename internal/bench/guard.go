package bench

import (
	"fmt"
	"math"
)

// The bench guard bounds the cost of the observability layer, and holds
// the translated path's gain, against the committed baseline
// (BENCH_SIM.json) and the current run:
//
//   - metrics-off: the hot loop with nothing attached to the observation
//     seam (recorder, profiler, tracer) — one predicted branch per cycle —
//     must keep its predecode speedup within metricsOffBudget of the
//     baseline's;
//   - metrics-on: the instrumented path must stay within metricsOnBudget
//     of the same run's predecoded path;
//   - fleet-metrics-on: an instrumented fleet (every session created with
//     Spec.Metrics) must stay within fleetMetricsOnBudget of the same run's
//     uninstrumented fleet at each session count;
//   - prof-on: the microarchitectural profiler (core.Profiler) attached,
//     charging every cycle to its microaddress, must stay within
//     profOnBudget of the same run's predecoded path. Detached, the
//     profiler shares the recorder's seam, so metrics-off covers it;
//   - translated: the superblock path must reach translatedMin times the
//     same run's predecoded throughput on translatedWorkloads workloads.
//
// CI hosts differ from the host that recorded the baseline, so the
// metrics-off check compares the *predecode speedup* (predecoded over
// reference cycles/sec) rather than absolute throughput: both paths run on
// the same host in the same process, so host speed divides out, while a
// regression that slows only the hot loop (the observation seam's gate
// sits in both interpreters, but predecode-relative costs surface here)
// drags the ratio down. The other checks need no normalization at all —
// both sides come from the current run.
//
// Every ratio is divided out of the reports' measurements (HostReport.Ratio
// for the paths, each fleet point's two rates), so a result the current
// report lacks fails its check instead of skipping it. A workload the
// baseline lacks has no metrics-off check until the baseline is
// regenerated; its other checks need only the current run.

// The guard's budgets: allowed fractional slowdowns (0.03 = 3%), plus the
// translated path's required same-run speedup. They are constants, not
// flags: CI and every local run judge by the same numbers.
//
// metricsOnBudget was 0.15 until superblock translation landed: the
// recorder's absolute per-cycle cost did not change, but that change
// removed per-blit predecode invalidation and so sped up the predecoded
// denominator — BitBlt's relative overhead rose from ~12% to ~17% with an
// unchanged recorder. 0.20 re-centers the budget on the faster base; a
// recorder regression still trips it.
const (
	metricsOffBudget     = 0.03 // predecode-speedup regression vs baseline
	metricsOnBudget      = 0.20 // instrumented vs predecoded, current run
	fleetMetricsOnBudget = 0.15 // instrumented fleet vs uninstrumented, current run
	profOnBudget         = 0.15 // profiled vs predecoded, current run
	// The translated check is aggregate (N-of-M) because not every §7
	// workload is translation-friendly — the emulator's microcode runs are
	// IFU-dispatch-bounded.
	translatedMin       = 1.5
	translatedWorkloads = 2
)

// GuardCheck is one pass/fail comparison.
type GuardCheck struct {
	Workload string
	Check    string  // "metrics-off", "metrics-on", "translated", or "prof-on"
	Baseline float64 // reference value the current one is held to
	Current  float64
	Limit    float64 // minimum acceptable Current
	OK       bool
}

// String renders the check as a one-line pass/fail report row.
func (c GuardCheck) String() string {
	verdict := "ok  "
	if !c.OK {
		verdict = "FAIL"
	}
	return fmt.Sprintf("%s %-8s %-11s current %6.3f  baseline %6.3f  limit %6.3f",
		verdict, c.Workload, c.Check, c.Current, c.Baseline, c.Limit)
}

// Guard compares a current report against the baseline. It returns every
// check performed and whether all passed.
//
// Noise floor: host-performance numbers on shared CI machines jitter by a
// few percent run to run, which is why the budgets bound ratios over
// paired same-process measurements rather than absolute cycles/sec.
func Guard(baseline, current *HostReport) ([]GuardCheck, bool) {
	var checks []GuardCheck
	check := func(workload, name string, base, cur, limit float64) {
		checks = append(checks, GuardCheck{
			Workload: workload, Check: name,
			Baseline: base, Current: cur, Limit: limit, OK: cur >= limit,
		})
	}
	for _, w := range HostWorkloads() {
		// A workload the baseline predates has no speedup to be held to.
		if base := baseline.Ratio(w.ID, PathPredecoded, PathReference); !math.IsNaN(base) {
			check(w.ID, "metrics-off", base, current.Ratio(w.ID, PathPredecoded, PathReference),
				base*(1-metricsOffBudget))
		}
		check(w.ID, "metrics-on", 1, current.Ratio(w.ID, PathInstrumented, PathPredecoded),
			1-metricsOnBudget)
		check(w.ID, "prof-on", 1, current.Ratio(w.ID, PathProfiled, PathPredecoded),
			1-profOnBudget)
	}
	// translated: the per-workload rows are informational (OK regardless
	// of their own ratio: no single workload is required to hit the
	// target, so a sub-target row is not a failure and must not read like
	// one); the any-2 row is the check.
	passing := 0
	for _, w := range HostWorkloads() {
		ratio := current.Ratio(w.ID, PathTranslated, PathPredecoded)
		if ratio >= translatedMin {
			passing++
		}
		checks = append(checks, GuardCheck{
			Workload: w.ID, Check: "translated",
			Baseline: 1, Current: ratio, Limit: translatedMin, OK: true,
		})
	}
	check("any-2", "translated", float64(len(HostWorkloads())), float64(passing), translatedWorkloads)
	// fleet-metrics-on: instrumented fleet throughput vs this run's
	// uninstrumented fleet, per session count.
	for _, p := range current.Fleet {
		check(fmt.Sprintf("fleet-%d", p.Sessions), "metrics-on", 1,
			p.MetricsCyclesPerSec/p.CyclesPerSec, 1-fleetMetricsOnBudget)
	}
	ok := true
	for _, c := range checks {
		ok = ok && c.OK
	}
	return checks, ok
}
