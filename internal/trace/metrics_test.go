package trace

import (
	"bytes"
	"strings"
	"testing"

	"dorado/internal/obs"
)

func TestMetricsSnapshotMatchesStats(t *testing.T) {
	m, _ := smallMachine(t)
	rec := obs.NewRecorder()
	m.SetRecorder(rec)
	if !m.Run(100) {
		t.Fatal("did not halt")
	}
	rec.Flush(m.Cycle())
	st := m.Stats()

	s := MetricsSnapshot(m, rec)
	find := func(name string) *obs.Metric {
		t.Helper()
		for i := range s.Metrics {
			if s.Metrics[i].Name == name {
				return &s.Metrics[i]
			}
		}
		t.Fatalf("metric %s missing", name)
		return nil
	}

	if got := find("dorado_cycles_total").Samples[0].Value; got != st.Cycles {
		t.Errorf("cycles metric %d != stats %d", got, st.Cycles)
	}
	if got := find("dorado_instructions_total").Samples[0].Value; got != st.Executed {
		t.Errorf("instructions metric %d != stats %d", got, st.Executed)
	}
	var holds uint64
	for _, smp := range find("dorado_holds_total").Samples {
		holds += smp.Value
	}
	if holds != st.Holds {
		t.Errorf("hold causes sum to %d, stats %d", holds, st.Holds)
	}
	var taskCycles uint64
	for _, smp := range find("dorado_task_cycles_total").Samples {
		taskCycles += smp.Value
	}
	if taskCycles != st.Cycles {
		t.Errorf("per-task cycles sum to %d, total %d", taskCycles, st.Cycles)
	}

	// Histogram families appear only with a recorder attached.
	if h := find("dorado_hold_latency_cycles").Hist; h == nil {
		t.Error("hold-latency histogram missing")
	} else if h.Sum != st.Holds {
		t.Errorf("hold-latency sum %d != stats holds %d", h.Sum, st.Holds)
	}
	bare := MetricsSnapshot(m, nil)
	for _, mm := range bare.Metrics {
		if mm.Name == "dorado_wakeups_total" {
			t.Error("recorder-only family present without recorder")
		}
	}
}

func TestMetricsSnapshotRendersDeterministically(t *testing.T) {
	run := func() string {
		m, _ := smallMachine(t)
		rec := obs.NewRecorder()
		m.SetRecorder(rec)
		if !m.Run(100) {
			t.Fatal("did not halt")
		}
		rec.Flush(m.Cycle())
		var buf bytes.Buffer
		if err := obs.WritePrometheus(&buf, MetricsSnapshot(m, rec)); err != nil {
			t.Fatal(err)
		}
		return buf.String()
	}
	a, b := run(), run()
	if a != b {
		t.Fatalf("two identical runs rendered differently:\n--- a ---\n%s\n--- b ---\n%s", a, b)
	}
	for _, want := range []string{
		"# TYPE dorado_cycles_total counter",
		"# TYPE dorado_hold_latency_cycles histogram",
		"dorado_wakeup_to_run_cycles_count",
	} {
		if !strings.Contains(a, want) {
			t.Errorf("exposition missing %q:\n%s", want, a)
		}
	}
}
