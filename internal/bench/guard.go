package bench

import "fmt"

// The bench guard bounds the cost of the observability layer against the
// committed baseline (BENCH_SIM.json, recorded by PR 1 before the layer
// existed):
//
//   - metrics-off: the hot loop with nothing attached to the observation
//     seam (recorder, profiler, tracer) — one predicted branch per cycle —
//     must stay within GuardThresholds.MetricsOff of the baseline;
//   - metrics-on: the instrumented path must stay within
//     GuardThresholds.MetricsOn of the same run's predecoded path;
//   - fleet-metrics-on: an instrumented fleet (every session created with
//     Spec.Metrics) must stay within GuardThresholds.FleetMetricsOn of the
//     same run's uninstrumented fleet at each session count;
//   - prof-on: the microarchitectural profiler (core.Profiler) attached,
//     charging every cycle to its microaddress, must stay within
//     GuardThresholds.ProfOn of the same run's predecoded path. Detached,
//     the profiler shares the recorder's seam, so metrics-off covers it.
//
// CI hosts differ from the host that recorded the baseline, so the
// metrics-off check compares the *predecode speedup* (predecoded over
// reference cycles/sec) rather than absolute throughput: both paths run on
// the same host in the same process, so host speed divides out, while a
// regression that slows only the hot loop (the observation seam's gate
// sits in both interpreters, but predecode-relative costs surface here)
// drags the ratio down. The metrics-on and prof-on checks need no
// normalization at all — both sides come from the current run.

// GuardThresholds are allowed fractional slowdowns (0.03 = 3%), plus the
// translated path's required same-run speedup.
type GuardThresholds struct {
	MetricsOff     float64 // predecode-speedup regression vs baseline
	MetricsOn      float64 // instrumented vs predecoded, current run
	FleetMetricsOn float64 // instrumented fleet vs uninstrumented, current run
	// TranslatedMin is the minimum translated-over-predecoded speedup, and
	// TranslatedWorkloads how many workloads must reach it. Both sides come
	// from the same interleaved run, so host speed divides out; the check is
	// aggregate (N-of-M) because not every §7 workload is translation-
	// friendly — the emulator's microcode runs are IFU-dispatch-bounded.
	TranslatedMin       float64
	TranslatedWorkloads int
	// ProfOn bounds the attached profiler (profiled vs predecoded,
	// current run).
	ProfOn float64
}

// DefaultGuardThresholds are the budgets the CI job enforces.
//
// MetricsOn was 0.15 until the superblock-translation PR: the recorder's
// absolute per-cycle cost did not change, but that PR removed per-blit
// predecode invalidation and so sped up the predecoded denominator —
// BitBlt's relative overhead rose from ~12% to ~17% with an unchanged
// recorder. 0.20 re-centers the budget on the faster base; a recorder
// regression still trips it.
var DefaultGuardThresholds = GuardThresholds{
	MetricsOff: 0.03, MetricsOn: 0.20, FleetMetricsOn: 0.15,
	TranslatedMin: 1.5, TranslatedWorkloads: 2,
	ProfOn: 0.15,
}

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
// few percent run to run, which is why the thresholds are ratios over
// paired same-process measurements rather than absolute cycles/sec.
func Guard(baseline, current *HostReport, th GuardThresholds) ([]GuardCheck, bool) {
	var checks []GuardCheck
	ok := true
	for _, w := range HostWorkloads() {
		// metrics-off: current predecode speedup vs the baseline's.
		if base, cur := baseline.Speedup[w.ID], current.Speedup[w.ID]; base > 0 && cur > 0 {
			limit := base * (1 - th.MetricsOff)
			c := GuardCheck{
				Workload: w.ID, Check: "metrics-off",
				Baseline: base, Current: cur, Limit: limit, OK: cur >= limit,
			}
			checks = append(checks, c)
			ok = ok && c.OK
		}
		// metrics-on: instrumented throughput vs this run's predecoded.
		fast := current.Result(w.ID, PathPredecoded)
		inst := current.Result(w.ID, PathInstrumented)
		if fast != nil && inst != nil && fast.CyclesPerSec > 0 {
			rel := inst.CyclesPerSec / fast.CyclesPerSec
			limit := 1 - th.MetricsOn
			c := GuardCheck{
				Workload: w.ID, Check: "metrics-on",
				Baseline: 1, Current: rel, Limit: limit, OK: rel >= limit,
			}
			checks = append(checks, c)
			ok = ok && c.OK
		}
		// prof-on: profiled throughput vs this run's predecoded. Skipped for
		// reports recorded before the profiled path existed.
		prof := current.Result(w.ID, PathProfiled)
		if fast != nil && prof != nil && fast.CyclesPerSec > 0 && th.ProfOn > 0 {
			rel := prof.CyclesPerSec / fast.CyclesPerSec
			limit := 1 - th.ProfOn
			c := GuardCheck{
				Workload: w.ID, Check: "prof-on",
				Baseline: 1, Current: rel, Limit: limit, OK: rel >= limit,
			}
			checks = append(checks, c)
			ok = ok && c.OK
		}
	}
	// translated: the superblock path must beat this run's predecoded path
	// by TranslatedMin on at least TranslatedWorkloads workloads. The check
	// is aggregate — per-workload rows are informational (OK regardless of
	// their own ratio: no single workload is required to hit the target, so
	// a sub-target row is not a failure and must not read like one). Skipped
	// entirely for reports recorded before the translated path existed.
	if len(current.Translation) > 0 && th.TranslatedMin > 0 {
		passing := 0
		for _, w := range HostWorkloads() {
			ratio, measured := current.Translation[w.ID]
			if !measured {
				continue
			}
			if ratio >= th.TranslatedMin {
				passing++
			}
			checks = append(checks, GuardCheck{
				Workload: w.ID, Check: "translated",
				Baseline: 1, Current: ratio, Limit: th.TranslatedMin, OK: true,
			})
		}
		c := GuardCheck{
			Workload: "any-2", Check: "translated",
			Baseline: float64(len(current.Translation)), Current: float64(passing),
			Limit: float64(th.TranslatedWorkloads), OK: passing >= th.TranslatedWorkloads,
		}
		checks = append(checks, c)
		ok = ok && c.OK
	}
	// fleet-metrics-on: instrumented fleet throughput vs this run's
	// uninstrumented fleet, per session count. Skipped for points measured
	// without the instrumented variant (or reports with no fleet section) —
	// simbench only populates MetricsCyclesPerSec when -fleet ran.
	for _, p := range current.Fleet {
		if p.MetricsCyclesPerSec <= 0 || p.CyclesPerSec <= 0 {
			continue
		}
		rel := p.MetricsCyclesPerSec / p.CyclesPerSec
		limit := 1 - th.FleetMetricsOn
		c := GuardCheck{
			Workload: fmt.Sprintf("fleet-%d", p.Sessions), Check: "metrics-on",
			Baseline: 1, Current: rel, Limit: limit, OK: rel >= limit,
		}
		checks = append(checks, c)
		ok = ok && c.OK
	}
	return checks, ok
}
