package bench

import "testing"

func guardReport(speedup map[string]float64, results []HostResult) *HostReport {
	return &HostReport{Speedup: speedup, Results: results}
}

func TestGuardPassesIdenticalReports(t *testing.T) {
	base := guardReport(map[string]float64{"emulator": 2.3, "disk": 2.0, "fastio": 1.8, "bitblt": 2.1}, nil)
	cur := guardReport(base.Speedup, []HostResult{
		{Workload: "emulator", Path: PathPredecoded, CyclesPerSec: 25e6},
		{Workload: "emulator", Path: PathInstrumented, CyclesPerSec: 24e6},
	})
	checks, ok := Guard(base, cur, DefaultGuardThresholds)
	if !ok {
		t.Fatalf("identical reports failed the guard: %v", checks)
	}
	// 4 metrics-off (recorder and profiler detached alike) + 1 metrics-on
	// (only emulator has both paths; no profiled result, so no prof-on
	// row).
	if len(checks) != 5 {
		t.Errorf("%d checks, want 5", len(checks))
	}
}

func TestGuardCatchesSpeedupRegression(t *testing.T) {
	base := guardReport(map[string]float64{"emulator": 2.3}, nil)
	cur := guardReport(map[string]float64{"emulator": 2.3 * 0.90}, nil) // 10% down
	checks, ok := Guard(base, cur, DefaultGuardThresholds)
	if ok {
		t.Fatal("10% speedup regression passed a 3% threshold")
	}
	var failed bool
	for _, c := range checks {
		if !c.OK && c.Check == "metrics-off" && c.Workload == "emulator" {
			failed = true
		}
	}
	if !failed {
		t.Errorf("no failing metrics-off check in %v", checks)
	}
}

func TestGuardAllowsSmallRegression(t *testing.T) {
	base := guardReport(map[string]float64{"emulator": 2.3}, nil)
	cur := guardReport(map[string]float64{"emulator": 2.3 * 0.98}, nil) // 2% down
	if _, ok := Guard(base, cur, DefaultGuardThresholds); !ok {
		t.Error("2% regression failed a 3% threshold")
	}
}

func TestGuardCatchesInstrumentationOverhead(t *testing.T) {
	cur := guardReport(nil, []HostResult{
		{Workload: "disk", Path: PathPredecoded, CyclesPerSec: 30e6},
		{Workload: "disk", Path: PathInstrumented, CyclesPerSec: 30e6 * 0.72}, // 28% overhead
	})
	checks, ok := Guard(&HostReport{}, cur, DefaultGuardThresholds)
	if ok {
		t.Fatalf("28%% instrumentation overhead passed a 20%% threshold: %v", checks)
	}
}

func TestGuardCatchesProfilerOverhead(t *testing.T) {
	cur := guardReport(nil, []HostResult{
		{Workload: "disk", Path: PathPredecoded, CyclesPerSec: 30e6},
		{Workload: "disk", Path: PathProfiled, CyclesPerSec: 30e6 * 0.80}, // 20% overhead
	})
	checks, ok := Guard(&HostReport{}, cur, DefaultGuardThresholds)
	if ok {
		t.Fatalf("20%% profiler overhead passed a 15%% threshold: %v", checks)
	}
	var failed bool
	for _, c := range checks {
		if !c.OK && c.Check == "prof-on" && c.Workload == "disk" {
			failed = true
		}
	}
	if !failed {
		t.Errorf("no failing prof-on check in %v", checks)
	}

	// 10% overhead is inside the budget.
	cur.Results[1].CyclesPerSec = 30e6 * 0.90
	if _, ok := Guard(&HostReport{}, cur, DefaultGuardThresholds); !ok {
		t.Error("10% profiler overhead failed a 15% threshold")
	}
}

func TestGuardToleratesMissingProfiledPath(t *testing.T) {
	// A report recorded before the profiled path existed: no prof-on rows,
	// and the guard passes.
	cur := guardReport(nil, []HostResult{
		{Workload: "disk", Path: PathPredecoded, CyclesPerSec: 30e6},
	})
	checks, ok := Guard(&HostReport{}, cur, DefaultGuardThresholds)
	if !ok {
		t.Fatalf("guard failed: %v", checks)
	}
	for _, c := range checks {
		if c.Check == "prof-on" {
			t.Errorf("prof-on check without a profiled result: %v", c)
		}
	}
}

func TestGuardToleratesMissingInstrumentedPath(t *testing.T) {
	// A PR-1-era report has no instrumented results: only the speedup
	// checks run, and nothing panics.
	base := guardReport(map[string]float64{"emulator": 2.3}, nil)
	cur := guardReport(map[string]float64{"emulator": 2.35}, []HostResult{
		{Workload: "emulator", Path: PathPredecoded, CyclesPerSec: 25e6},
	})
	checks, ok := Guard(base, cur, DefaultGuardThresholds)
	if !ok {
		t.Fatalf("guard failed: %v", checks)
	}
	for _, c := range checks {
		if c.Check == "metrics-on" {
			t.Errorf("metrics-on check without an instrumented result: %v", c)
		}
	}
}

func TestGuardTranslatedAggregate(t *testing.T) {
	// Two of four workloads reach 1.5x: the aggregate passes even though
	// the per-workload rows for the other two show misses.
	cur := guardReport(nil, nil)
	cur.Translation = map[string]float64{
		"emulator": 1.02, "disk": 1.7, "fastio": 1.1, "bitblt": 1.55,
	}
	checks, ok := Guard(&HostReport{}, cur, DefaultGuardThresholds)
	if !ok {
		t.Fatalf("2-of-4 translated workloads at 1.5x failed the guard: %v", checks)
	}
	var agg *GuardCheck
	rows := 0
	for i, c := range checks {
		if c.Check != "translated" {
			continue
		}
		if c.Workload == "any-2" {
			agg = &checks[i]
		} else {
			rows++
			if !c.OK {
				t.Errorf("per-workload translated row %s marked FAIL; rows are informational", c.Workload)
			}
		}
	}
	if agg == nil || !agg.OK || agg.Current != 2 {
		t.Fatalf("aggregate translated check wrong: %+v", agg)
	}
	if rows != 4 {
		t.Errorf("%d per-workload translated rows, want 4", rows)
	}

	// Only one workload at 1.5x: the aggregate fails.
	cur.Translation = map[string]float64{
		"emulator": 1.02, "disk": 1.7, "fastio": 1.1, "bitblt": 1.2,
	}
	if _, ok := Guard(&HostReport{}, cur, DefaultGuardThresholds); ok {
		t.Fatal("1-of-4 translated workloads at 1.5x passed the guard")
	}
}

func TestGuardToleratesMissingTranslation(t *testing.T) {
	// A report recorded before the translated path existed has no
	// Translation map: no translated checks run, and the guard passes.
	base := guardReport(map[string]float64{"emulator": 2.3}, nil)
	cur := guardReport(map[string]float64{"emulator": 2.3}, nil)
	checks, ok := Guard(base, cur, DefaultGuardThresholds)
	if !ok {
		t.Fatalf("guard failed: %v", checks)
	}
	for _, c := range checks {
		if c.Check == "translated" {
			t.Errorf("translated check without translation data: %v", c)
		}
	}
}

// End to end on real (tiny) measurements: the instrumented path must work
// and the report must carry all three paths with sane ratios.
func TestRunHostReportThreePaths(t *testing.T) {
	if testing.Short() {
		t.Skip("host measurement in -short")
	}
	rep, err := RunHostReport(50_000, 1)
	if err != nil {
		t.Fatal(err)
	}
	for _, w := range HostWorkloads() {
		for _, path := range []string{PathPredecoded, PathReference, PathInstrumented, PathProfiled} {
			r := rep.Result(w.ID, path)
			if r == nil {
				t.Fatalf("missing (%s, %s)", w.ID, path)
			}
			if r.CyclesPerSec <= 0 {
				t.Errorf("(%s, %s): %f cycles/sec", w.ID, path, r.CyclesPerSec)
			}
		}
		if rep.Overhead[w.ID] <= 0 {
			t.Errorf("%s: overhead %f", w.ID, rep.Overhead[w.ID])
		}
		if rep.ProfOverhead[w.ID] <= 0 {
			t.Errorf("%s: prof overhead %f", w.ID, rep.ProfOverhead[w.ID])
		}
	}
}
