package obs

import (
	"bytes"
	"crypto/sha256"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"strings"
	"testing"
)

func TestHistogramBuckets(t *testing.T) {
	h := NewHistogram([]uint64{1, 2, 4})
	for _, v := range []uint64{1, 2, 2, 3, 4, 5, 100} {
		h.Observe(v)
	}
	want := []uint64{1, 2, 2, 2} // ≤1, (1,2], (2,4], +Inf
	for i, w := range want {
		if got := h.BucketCount(i); got != w {
			t.Errorf("bucket %d = %d, want %d", i, got, w)
		}
	}
	if h.Count() != 7 || h.Sum() != 117 {
		t.Errorf("count=%d sum=%d", h.Count(), h.Sum())
	}
	if m := h.Mean(); m < 16.0 || m > 17.0 {
		t.Errorf("mean = %v", m)
	}
	s := h.Snapshot()
	if s.Total != 7 || len(s.Counts) != 4 {
		t.Errorf("snapshot = %+v", s)
	}
}

// feed drives the recorder like core's hot loop: cycles[i] describes cycle
// i as (task, held, wakeup lines).
type fed struct {
	task  int
	held  bool
	lines uint16
}

func feed(r *Recorder, cycles []fed) {
	var taskCycles [MaxTasks]uint64
	for now, c := range cycles {
		taskCycles[c.task]++
		r.Cycle(uint64(now), c.task, c.held, c.lines, &taskCycles)
	}
	r.Flush(uint64(len(cycles)))
}

func TestRecorderWakeupEdges(t *testing.T) {
	r := NewRecorder()
	feed(r, []fed{
		{task: 0, lines: 1},        // task 0's line is wired high
		{task: 0, lines: 1 | 1<<4}, // task 4 raises its line: edge
		{task: 0, lines: 1 | 1<<4}, // still up: no new edge
		{task: 4, lines: 1},        // task 4 runs (dropped its line)
		{task: 0, lines: 1 | 1<<4}, // second request: edge
		{task: 0, lines: 1 | 1<<4},
		{task: 4, lines: 1}, // runs two cycles after the edge again
	})
	if got := r.Wakeups(4); got != 2 {
		t.Errorf("task 4 wakeups = %d, want 2", got)
	}
	if got := r.Wakeups(0); got != 1 {
		t.Errorf("task 0 wakeups = %d, want 1 (boot edge)", got)
	}
	if got := r.WakeupsTotal(); got != 2 {
		t.Errorf("total = %d, want 2 (task 0 excluded)", got)
	}
	// Both wakeups ran 2 cycles after their edge.
	ws := r.WakeupToRun().Snapshot()
	if ws.Total != 2 || ws.Sum != 4 {
		t.Errorf("wakeup-to-run: total=%d sum=%d, want 2 and 4", ws.Total, ws.Sum)
	}
}

func TestRecorderHoldEpisodes(t *testing.T) {
	r := NewRecorder()
	feed(r, []fed{
		{task: 0, lines: 1},
		{task: 0, held: true, lines: 1},
		{task: 0, held: true, lines: 1},
		{task: 0, lines: 1},
		{task: 0, held: true, lines: 1}, // open at end of run: Flush closes
	})
	h := r.HoldLatency().Snapshot()
	if h.Total != 2 || h.Sum != 3 {
		t.Errorf("hold episodes: total=%d sum=%d, want 2 episodes, 3 held cycles", h.Total, h.Sum)
	}
}

func TestRecorderSpansAndTimeline(t *testing.T) {
	r := newRecorder(maxSpans, 4)
	feed(r, []fed{
		{task: 0, lines: 1}, {task: 0, lines: 1},
		{task: 4, lines: 1}, {task: 4, lines: 1}, {task: 4, lines: 1},
		{task: 0, lines: 1}, {task: 0, lines: 1}, {task: 0, lines: 1},
	})
	spans := r.Spans()
	want := []Span{{0, 0, 2}, {4, 2, 5}, {0, 5, 8}}
	if len(spans) != len(want) {
		t.Fatalf("spans = %v, want %v", spans, want)
	}
	for i := range want {
		if spans[i] != want[i] {
			t.Errorf("span %d = %v, want %v", i, spans[i], want[i])
		}
	}
	tl := r.Timeline()
	if len(tl) != 2 {
		t.Fatalf("timeline = %v, want 2 slices", tl)
	}
	if tl[0].Cycles[0] != 2 || tl[0].Cycles[4] != 2 {
		t.Errorf("slice 0 = %v", tl[0].Cycles)
	}
	if tl[1].Cycles[4] != 1 || tl[1].Cycles[0] != 3 {
		t.Errorf("slice 1 = %v", tl[1].Cycles)
	}
}

func TestRecorderSpanCap(t *testing.T) {
	r := newRecorder(2, timelineInterval)
	cycles := make([]fed, 10)
	for i := range cycles {
		cycles[i] = fed{task: i % 2, lines: 1}
	}
	feed(r, cycles)
	if len(r.Spans()) != 2 {
		t.Errorf("%d spans stored, want cap 2", len(r.Spans()))
	}
	if r.SpansDropped() == 0 {
		t.Error("no drops counted")
	}
}

func TestWritePrometheus(t *testing.T) {
	var s Snapshot
	s.Add("dorado_cycles_total", "Simulated cycles.", "counter", Sample{Value: 42})
	s.Add("dorado_task_cycles_total", "Per-task cycles.", "counter",
		Sample{Label: TaskLabel(0), Value: 40}, Sample{Label: TaskLabel(4), Value: 2})
	h := NewHistogram([]uint64{1, 2})
	h.Observe(2)
	h.Observe(7)
	s.AddHistogram("dorado_hold_latency_cycles", "Hold episode lengths.", h.Snapshot())

	var b bytes.Buffer
	if err := WritePrometheus(&b, &s); err != nil {
		t.Fatal(err)
	}
	out := b.String()
	for _, want := range []string{
		"# TYPE dorado_cycles_total counter",
		"dorado_cycles_total 42",
		`dorado_task_cycles_total{task="4"} 2`,
		"# TYPE dorado_hold_latency_cycles histogram",
		`dorado_hold_latency_cycles_bucket{le="2"} 1`,
		`dorado_hold_latency_cycles_bucket{le="+Inf"} 2`,
		"dorado_hold_latency_cycles_sum 9",
		"dorado_hold_latency_cycles_count 2",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("output missing %q:\n%s", want, out)
		}
	}
}

func TestWriteChromeTrace(t *testing.T) {
	r := newRecorder(maxSpans, 4)
	r.SetTaskName(4, "disk")
	feed(r, []fed{
		{task: 0, lines: 1}, {task: 0, lines: 1},
		{task: 4, lines: 1}, {task: 4, lines: 1},
		{task: 0, lines: 1},
	})
	var b bytes.Buffer
	if err := WriteChromeTrace(&b, r); err != nil {
		t.Fatal(err)
	}
	// The export is byte-deterministic; this digest pins it (it must not
	// move when the encoder is shared with internal/obs/prof).
	if got := fmt.Sprintf("%x", sha256.Sum256(b.Bytes())); got != "89e711a506464675c7cd28564daf933730a0a6c4920eb8a54e494d8297018f9c" {
		t.Errorf("Chrome-trace export changed: sha256 %s\n%s", got, b.String())
	}
	var doc struct {
		TraceEvents []map[string]any `json:"traceEvents"`
	}
	if err := json.Unmarshal(b.Bytes(), &doc); err != nil {
		t.Fatalf("not valid JSON: %v\n%s", err, b.String())
	}
	var spans, meta int
	for _, ev := range doc.TraceEvents {
		switch ev["ph"] {
		case "X":
			spans++
			if ev["name"] == "disk" {
				if ev["ts"] != 0.12 { // cycle 2 × 60 ns = 0.12 µs
					t.Errorf("disk span ts = %v, want 0.12", ev["ts"])
				}
			}
		case "M":
			meta++
		}
	}
	if spans != 3 {
		t.Errorf("%d span events, want 3", spans)
	}
	if meta < 3 { // process_name + ≥2 thread_name rows
		t.Errorf("%d metadata events", meta)
	}
}

func TestUsecFormatting(t *testing.T) {
	cases := map[uint64]string{0: "0.00", 1: "0.06", 2: "0.12", 17: "1.02", 1000: "60.00"}
	for cycles, want := range cases {
		if got := string(TraceTime(cycles)); got != want {
			t.Errorf("TraceTime(%d) = %q, want %q", cycles, got, want)
		}
	}
}

func TestDebugServer(t *testing.T) {
	var s Snapshot
	s.Add("dorado_cycles_total", "", "counter", Sample{Value: 7})
	d, err := ServeDebug("127.0.0.1:0", func() *Snapshot { return &s })
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close()

	get := func(path string) string {
		resp, err := http.Get("http://" + d.Addr() + path)
		if err != nil {
			t.Fatalf("GET %s: %v", path, err)
		}
		defer resp.Body.Close()
		if resp.StatusCode != 200 {
			t.Fatalf("GET %s: status %d", path, resp.StatusCode)
		}
		body, _ := io.ReadAll(resp.Body)
		return string(body)
	}
	if out := get("/metrics"); !strings.Contains(out, "dorado_cycles_total 7") {
		t.Errorf("/metrics = %q", out)
	}
	if out := get("/debug/vars"); !strings.Contains(out, "cmdline") {
		t.Errorf("/debug/vars = %.100q", out)
	}
	if out := get("/debug/pprof/cmdline"); out == "" {
		t.Error("/debug/pprof/cmdline empty")
	}
}

func TestTaskNameDefault(t *testing.T) {
	r := NewRecorder()
	if got := r.TaskName(11); got != "task 11" {
		t.Errorf("TaskName(11) = %q", got)
	}
	r.SetTaskName(11, "disk")
	if got := r.TaskName(11); got != "disk" {
		t.Errorf("TaskName(11) = %q", got)
	}
}

func ExampleWritePrometheus() {
	var s Snapshot
	s.Add("dorado_cycles_total", "Simulated cycles.", "counter", Sample{Value: 100})
	WritePrometheus(io.Discard, &s)
	fmt.Println("ok")
	// Output: ok
}
