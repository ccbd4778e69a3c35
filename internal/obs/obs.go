// Package obs is the simulator's observability layer: the software
// analogue of the Dorado's console microcomputer (§6.2), which watched the
// running processor from out of band, and of the hardware event counters
// the paper's evaluation (§7) is built from.
//
// The package has two halves:
//
//   - a Recorder, fed one call per cycle by core's hot loop when attached
//     (and costing exactly one nil check per cycle when not): wakeup-edge
//     counters, a hold-latency histogram, a wakeup-to-run histogram (the
//     empirical check on the paper's two-cycle claim, §5.4), per-task
//     scheduling spans, and a sampled per-task utilization timeline;
//   - exporters that render collected data in standard formats: Prometheus
//     text exposition (WritePrometheus), Chrome trace_event JSON that loads
//     in chrome://tracing and Perfetto (WriteChromeTrace), and an expvar +
//     pprof debug server for the cmd tools (ServeDebug).
//
// Concurrency model: a Recorder belongs to one machine and is written
// only by that machine's run loop, so its counters, histograms, spans and
// timeline are plain fields. It is read while its machine is paused:
// cmd/dorado publishes a snapshot between run slices on the goroutine
// that simulates, the fleet reads one inside a serialized session
// operation, and the facade's exporters run between runs. The per-cycle
// fast path is bit tests on two machine words, which is what keeps the
// metrics-on overhead within the budget the bench guard enforces (see
// DESIGN.md §9).
package obs

import (
	"math/bits"
	"strconv"
)

// MaxTasks is the number of microcode priority levels the recorder tracks
// (mirrors core.NumTasks; the two are asserted equal in core's tests).
const MaxTasks = 16

// Span is one scheduling interval: task held the processor from cycle
// Start up to but not including cycle End.
type Span struct {
	Task  int
	Start uint64
	End   uint64
}

// Slice is one utilization-timeline sample: per-task cycle counts over
// [Start, Start+Interval).
type Slice struct {
	Start  uint64
	Cycles [MaxTasks]uint32
}

// The recorder's bounds. Spans beyond maxSpans are counted in
// SpansDropped rather than stored, and timeline samples beyond maxSlices
// are lost, so a long run cannot grow without bound. timelineInterval is
// the utilization sampling period in cycles.
const (
	maxSpans         = 1 << 16
	timelineInterval = 4096
	maxSlices        = 1 << 14
)

// Recorder accumulates observability data for one machine. Attach it with
// the facade's WithMetrics option (or core.Machine.SetRecorder) and read
// it through its accessors and exporters while the machine is paused.
type Recorder struct {
	// maxSpans and timelineInterval, except in this package's tests.
	spanCap  int
	interval uint64

	// Counters.
	wakeups      [MaxTasks]uint64 // rising wakeup-line edges per task
	spansDropped uint64
	slicesLost   uint64

	// Histograms.
	holdLatency Histogram // consecutive held cycles per hold episode (§5.7)
	wakeupToRun Histogram // wakeup edge → first executed cycle (§5.4)

	// Hot-loop scratch.
	fastKey   uint64           // prevLines | spanTask<<16, or ^0 (see Cycle)
	prevLines uint16           // last cycle's wakeup latch, for edge detection
	wakeAt    [MaxTasks]uint64 // cycle+1 of the pending wakeup edge; 0 = none
	holdStart uint64           // cycle+1 the open hold episode began; 0 = none
	spanTask  int              // task of the open scheduling span
	spanStart uint64
	names     [MaxTasks]string

	// Event buffers.
	spans     []Span
	timeline  []Slice
	lastTaken [MaxTasks]uint64 // task-cycle counters at the previous sample
	nextAt    uint64           // cycle of the next timeline sample
}

// NewRecorder builds a recorder.
func NewRecorder() *Recorder { return newRecorder(maxSpans, timelineInterval) }

// newRecorder builds a recorder that stores at most spanCap spans and
// samples the timeline every interval cycles.
func newRecorder(spanCap int, interval uint64) *Recorder {
	return &Recorder{
		spanCap:     spanCap,
		interval:    interval,
		holdLatency: NewHistogram(HoldLatencyBounds),
		wakeupToRun: NewHistogram(WakeupBounds),
		fastKey:     ^uint64(0), // the first cycle must take the slow path
		spanTask:    -1,
		nextAt:      interval,
	}
}

// SetTaskName labels a task in exports ("emulator", "disk", ...).
func (r *Recorder) SetTaskName(task int, name string) {
	if task >= 0 && task < MaxTasks {
		r.names[task] = name
	}
}

// TaskName returns the label for a task ("task N" when unset).
func (r *Recorder) TaskName(task int) string {
	if task >= 0 && task < MaxTasks && r.names[task] != "" {
		return r.names[task]
	}
	return "task " + strconv.Itoa(task)
}

// heldKeyBit marks a held cycle in the fast-path key, above the 16 line
// bits and 4 task bits.
const heldKeyBit = 1 << 20

// NeedsCycle reports whether Cycle has any work to do this cycle. It is
// small enough to inline, so core's hot loop guards the Cycle call with it
// and an event-free cycle costs a few compares and no call. Cycle leaves
// fastKey = prevLines | spanTask<<16 (| heldKeyBit mid-episode) when a
// next cycle in the same state needs no bookkeeping — steady runs of
// unheld execution *and* steady hold episodes both ride the fast path —
// and poisons it (^0) while a pending wakeup edge for the running task
// forces per-cycle attention. The timeline sample deadline is checked
// separately because it is a moving cycle count.
func (r *Recorder) NeedsCycle(now uint64, task int, held bool, lines uint16) bool {
	key := uint64(lines) | uint64(uint16(task))<<16
	if held {
		key |= heldKeyBit
	}
	return key != r.fastKey || now+1 >= r.nextAt
}

// QuietUntil returns the first cycle at which NeedsCycle would report work
// for cycles that all present this task, hold state and latch: 0 when the
// next such cycle would, else the one before the next timeline sample.
// Core bounds a run of identical held cycles it retires in one step with
// it, so the recorder sees the same events as when called every cycle.
func (r *Recorder) QuietUntil(task int, held bool, lines uint16) uint64 {
	key := uint64(lines) | uint64(uint16(task))<<16
	if held {
		key |= heldKeyBit
	}
	if key != r.fastKey {
		return 0
	}
	return r.nextAt - 1
}

// Cycle records one machine cycle. It is the hot-loop hook: core calls it
// once per cycle when the recorder is attached (and, for speed, only when
// NeedsCycle says there is work). Calling it on a no-event cycle is
// harmless — it re-checks NeedsCycle and returns.
//
//	now        the cycle just simulated
//	task       the task that occupied the processor this cycle
//	held       whether the instruction was held (§5.7)
//	lines      this cycle's WAKEUP latch (bit per task)
//	taskCycles the machine's running per-task cycle counters
func (r *Recorder) Cycle(now uint64, task int, held bool, lines uint16, taskCycles *[MaxTasks]uint64) {
	if !r.NeedsCycle(now, task, held, lines) {
		return
	}
	// Wakeup edges: a line that is up this cycle and was down last cycle.
	// Most cycles have none, so the common path is two ALU ops and a branch.
	if edges := lines &^ r.prevLines; edges != 0 {
		r.prevLines = lines
		for edges != 0 {
			t := bits.TrailingZeros16(edges)
			edges &= edges - 1
			r.wakeups[t]++
			// Task 0's line is wired high (§5.1): its single boot-time
			// edge is not a wakeup whose latency means anything.
			if t != 0 && r.wakeAt[t] == 0 {
				r.wakeAt[t] = now + 1 // +1 so zero means "no pending edge"
			}
		}
	} else {
		r.prevLines = lines
	}

	// Wakeup-to-run: the task running now had a pending edge at cycle w.
	// The paper's pipeline (§5.4) makes this 2 in the undisturbed case.
	if w := r.wakeAt[task]; w != 0 {
		r.wakeupToRun.Observe(now - (w - 1))
		r.wakeAt[task] = 0
	}

	// Hold episodes: note where one starts, record its length on release.
	// The cycles in between ride the fast path (heldKeyBit), so a long
	// storage-latency hold costs two slow cycles, not one per held cycle.
	if held {
		if r.holdStart == 0 {
			r.holdStart = now + 1 // +1 so zero means "no open episode"
		}
	} else if r.holdStart != 0 {
		r.holdLatency.Observe(now - (r.holdStart - 1))
		r.holdStart = 0
	}

	// Scheduling spans: close the open span when occupancy changes.
	if task != r.spanTask {
		if r.spanTask >= 0 {
			r.endSpan(now)
		}
		r.spanTask = task
		r.spanStart = now
	}

	// Utilization timeline: sample the per-task counters every interval.
	if now+1 >= r.nextAt {
		r.sample(now+1, taskCycles)
	}

	// Re-arm the fast path: encode the state an event-free next cycle will
	// present, or poison the key while a pending edge for the running task
	// needs per-cycle bookkeeping.
	key := uint64(r.prevLines) | uint64(uint16(r.spanTask))<<16
	if held {
		key |= heldKeyBit
	}
	if r.wakeAt[task] != 0 {
		key = ^uint64(0)
	}
	r.fastKey = key
}

// Flush closes the open scheduling span and hold episode at end-of-run so
// exports account for every cycle up to now.
func (r *Recorder) Flush(now uint64) {
	if r.holdStart != 0 {
		r.holdLatency.Observe(now - (r.holdStart - 1))
		r.holdStart = 0
	}
	if r.spanTask >= 0 && now > r.spanStart {
		r.endSpan(now)
		r.spanStart = now
	}
	r.fastKey = ^uint64(0) // resuming after a flush re-enters the slow path
}

func (r *Recorder) endSpan(end uint64) {
	if len(r.spans) >= r.spanCap {
		r.spansDropped++
		return
	}
	r.spans = append(r.spans, Span{Task: r.spanTask, Start: r.spanStart, End: end})
}

func (r *Recorder) sample(at uint64, taskCycles *[MaxTasks]uint64) {
	r.nextAt = at + r.interval
	if len(r.timeline) >= maxSlices {
		r.slicesLost++
		return
	}
	s := Slice{Start: at - r.interval}
	for t := 0; t < MaxTasks; t++ {
		s.Cycles[t] = uint32(taskCycles[t] - r.lastTaken[t])
		r.lastTaken[t] = taskCycles[t]
	}
	r.timeline = append(r.timeline, s)
}

// Wakeups returns the rising-edge count for a task.
func (r *Recorder) Wakeups(task int) uint64 { return r.wakeups[task&(MaxTasks-1)] }

// WakeupsTotal sums the per-task wakeup edges (excluding task 0, whose
// line is wired high, §5.1 — it contributes exactly one boot-time edge).
func (r *Recorder) WakeupsTotal() uint64 {
	var n uint64
	for t := 1; t < MaxTasks; t++ {
		n += r.wakeups[t]
	}
	return n
}

// SpansDropped reports spans lost to the span cap.
func (r *Recorder) SpansDropped() uint64 { return r.spansDropped }

// HoldLatency returns the hold-episode-length histogram.
func (r *Recorder) HoldLatency() *Histogram { return &r.holdLatency }

// WakeupToRun returns the wakeup-to-first-run latency histogram.
func (r *Recorder) WakeupToRun() *Histogram { return &r.wakeupToRun }

// Spans returns the recorded scheduling spans (after Flush, the tail span
// too).
func (r *Recorder) Spans() []Span { return r.spans }

// Timeline returns the utilization samples.
func (r *Recorder) Timeline() []Slice { return r.timeline }

// TimelineInterval returns the sampling period in cycles.
func (r *Recorder) TimelineInterval() uint64 { return r.interval }
