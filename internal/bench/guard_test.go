package bench

import "testing"

// guardReport is a complete report: every workload on every path at the
// same throughputs (predecode speedup 3.0, instrumented 0.90 and profiled
// 0.95 of predecoded, translated 1.6×), plus a one-session fleet point
// whose instrumented rate is 0.95 of its plain one.
func guardReport() *HostReport {
	rates := map[string]float64{
		PathPredecoded: 30e6, PathReference: 10e6, PathInstrumented: 27e6,
		PathTranslated: 48e6, PathProfiled: 28.5e6,
	}
	rep := &HostReport{Fleet: []FleetPoint{{Sessions: 1, CyclesPerSec: 40e6, MetricsCyclesPerSec: 38e6}}}
	for _, w := range HostWorkloads() {
		for _, p := range HostPaths() {
			rep.Results = append(rep.Results, HostResult{Workload: w.ID, Path: p, CyclesPerSec: rates[p]})
		}
	}
	return rep
}

// setRate sets one (workload, path) throughput in rep.
func setRate(t *testing.T, rep *HostReport, workload, path string, cyclesPerSec float64) {
	t.Helper()
	r := rep.Result(workload, path)
	if r == nil {
		t.Fatalf("no (%s, %s) result", workload, path)
	}
	r.CyclesPerSec = cyclesPerSec
}

// failed reports whether checks holds a failing (workload, check) row.
func failed(checks []GuardCheck, workload, check string) bool {
	for _, c := range checks {
		if !c.OK && c.Workload == workload && c.Check == check {
			return true
		}
	}
	return false
}

func TestGuardPassesIdenticalReports(t *testing.T) {
	checks, ok := Guard(guardReport(), guardReport())
	if !ok {
		t.Fatalf("identical reports failed the guard: %v", checks)
	}
	// Per workload: metrics-off, metrics-on, prof-on and a translated row;
	// then the any-2 aggregate and one fleet row.
	if want := 4*len(HostWorkloads()) + 2; len(checks) != want {
		t.Errorf("%d checks, want %d", len(checks), want)
	}
}

func TestGuardCatchesSpeedupRegression(t *testing.T) {
	cur := guardReport()
	setRate(t, cur, "emulator", PathReference, 10e6/0.90) // speedup 10% down
	checks, ok := Guard(guardReport(), cur)
	if ok {
		t.Fatal("10% speedup regression passed a 3% threshold")
	}
	if !failed(checks, "emulator", "metrics-off") {
		t.Errorf("no failing metrics-off check in %v", checks)
	}
}

func TestGuardAllowsSmallRegression(t *testing.T) {
	cur := guardReport()
	setRate(t, cur, "emulator", PathReference, 10e6/0.98) // speedup 2% down
	if checks, ok := Guard(guardReport(), cur); !ok {
		t.Errorf("2%% regression failed a 3%% threshold: %v", checks)
	}
}

func TestGuardCatchesInstrumentationOverhead(t *testing.T) {
	cur := guardReport()
	setRate(t, cur, "disk", PathInstrumented, 30e6*0.72) // 28% overhead
	checks, ok := Guard(guardReport(), cur)
	if ok || !failed(checks, "disk", "metrics-on") {
		t.Fatalf("28%% instrumentation overhead passed a 20%% threshold: %v", checks)
	}
}

func TestGuardCatchesProfilerOverhead(t *testing.T) {
	cur := guardReport()
	setRate(t, cur, "disk", PathProfiled, 30e6*0.80) // 20% overhead
	checks, ok := Guard(guardReport(), cur)
	if ok {
		t.Fatalf("20%% profiler overhead passed a 15%% threshold: %v", checks)
	}
	if !failed(checks, "disk", "prof-on") {
		t.Errorf("no failing prof-on check in %v", checks)
	}

	// 10% overhead is inside the budget.
	setRate(t, cur, "disk", PathProfiled, 30e6*0.90)
	if _, ok := Guard(guardReport(), cur); !ok {
		t.Error("10% profiler overhead failed a 15% threshold")
	}
}

func TestGuardTranslatedAggregate(t *testing.T) {
	// Two of four workloads reach 1.5x: the aggregate passes even though
	// the per-workload rows for the other two show misses.
	cur := guardReport()
	for id, ratio := range map[string]float64{"emulator": 1.02, "disk": 1.7, "fastio": 1.1, "bitblt": 1.55} {
		setRate(t, cur, id, PathTranslated, 30e6*ratio)
	}
	checks, ok := Guard(guardReport(), cur)
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
	setRate(t, cur, "bitblt", PathTranslated, 30e6*1.2)
	if _, ok := Guard(guardReport(), cur); ok {
		t.Fatal("1-of-4 translated workloads at 1.5x passed the guard")
	}
}

// TestGuardFailsMissingPath: a current report that lacks a path, or a
// fleet point without its instrumented rate, fails the check that needs
// it instead of skipping it.
func TestGuardFailsMissingPath(t *testing.T) {
	for _, tc := range []struct{ path, workload, check string }{
		{PathReference, "disk", "metrics-off"},
		{PathInstrumented, "disk", "metrics-on"},
		{PathProfiled, "disk", "prof-on"},
		{PathTranslated, "any-2", "translated"},
	} {
		cur := guardReport()
		kept := cur.Results[:0]
		for _, r := range cur.Results {
			if r.Path != tc.path {
				kept = append(kept, r)
			}
		}
		cur.Results = kept
		checks, ok := Guard(guardReport(), cur)
		if ok || !failed(checks, tc.workload, tc.check) {
			t.Errorf("report without %s results: no failing %s %s check in %v", tc.path, tc.workload, tc.check, checks)
		}
	}
	cur := guardReport()
	cur.Fleet[0].MetricsCyclesPerSec = 0
	if checks, ok := Guard(guardReport(), cur); ok || !failed(checks, "fleet-1", "metrics-on") {
		t.Errorf("fleet point without its instrumented rate passed: %v", checks)
	}
}

// TestGuardWorkloadBaselineLacks: a baseline that predates a workload
// holds it to no metrics-off speedup; its same-run checks still run.
func TestGuardWorkloadBaselineLacks(t *testing.T) {
	base := guardReport()
	kept := base.Results[:0]
	for _, r := range base.Results {
		if r.Workload != "bitblt" {
			kept = append(kept, r)
		}
	}
	base.Results = kept
	checks, ok := Guard(base, guardReport())
	if !ok {
		t.Fatalf("a workload the baseline lacks failed the guard: %v", checks)
	}
	if want := 4*len(HostWorkloads()) + 1; len(checks) != want {
		t.Errorf("%d checks, want %d (no metrics-off row for bitblt)", len(checks), want)
	}
	for _, c := range checks {
		if c.Workload == "bitblt" && c.Check == "metrics-off" {
			t.Errorf("metrics-off row for a workload the baseline lacks: %v", c)
		}
	}
}

func TestGuardCheckString(t *testing.T) {
	c := GuardCheck{Workload: "bitblt", Check: "metrics-off", Baseline: 2.984863, Current: 2.5, Limit: 2.895317, OK: false}
	const want = "FAIL bitblt   metrics-off current  2.500  baseline  2.985  limit  2.895"
	if got := c.String(); got != want {
		t.Errorf("row:\n got %q\nwant %q", got, want)
	}
}

// TestHostTableCommittedBaseline pins what benchtab -host renders for the
// committed BENCH_SIM.json: its ratios come from the recorded results, and
// the profiled path, which that report predates, renders as "-".
func TestHostTableCommittedBaseline(t *testing.T) {
	rep, err := ReadHostReportFile("../../BENCH_SIM.json")
	if err != nil {
		t.Fatal(err)
	}
	const want = `host throughput, Mcycles/sec (go1.24.0 linux/amd64, 6000000 cycles per run)
workload     predecoded    reference instrumented   translated     profiled   speedup   metrics  translated      prof
emulator           24.6         10.0         22.3         23.2            -     2.46x     1.10x       0.95x         -
disk               30.2         10.2         28.8         50.4            -     2.97x     1.05x       1.67x         -
fastio             20.6          9.0         18.9         20.6            -     2.30x     1.09x       1.00x         -
bitblt             35.0         11.7         29.7         54.6            -     2.98x     1.18x       1.56x         -
`
	if got := rep.HostTable(); got != want {
		t.Errorf("host table:\n%s\nwant:\n%s", got, want)
	}
}

// End to end on real (tiny) measurements: every path must run and the
// report must carry each with a usable ratio.
func TestRunHostReportThreePaths(t *testing.T) {
	if testing.Short() {
		t.Skip("host measurement in -short")
	}
	rep, err := RunHostReport(50_000, 1, HostPaths())
	if err != nil {
		t.Fatal(err)
	}
	if want := len(HostWorkloads()) * len(HostPaths()); len(rep.Results) != want {
		t.Fatalf("%d results, want %d", len(rep.Results), want)
	}
	for _, w := range HostWorkloads() {
		for _, path := range HostPaths() {
			if r := rep.Result(w.ID, path); r == nil || r.CyclesPerSec <= 0 {
				t.Fatalf("(%s, %s): %+v", w.ID, path, r)
			}
			if ratio := rep.Ratio(w.ID, path, PathPredecoded); !(ratio > 0) {
				t.Errorf("%s: %s over predecoded %f", w.ID, path, ratio)
			}
		}
	}
}
