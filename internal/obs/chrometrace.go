package obs

import (
	"encoding/json"
	"io"
	"strconv"
)

// cycleNS is the simulated cycle time the trace timeline is scaled by
// (60 ns, §1 of the paper; mirrors core.CycleNS without the import).
const cycleNS = 60

// TraceEvent is one Chrome trace_event object, shared with the profiler's
// superblock export (internal/obs/prof). Field order is fixed, so the
// encoding is byte-deterministic.
type TraceEvent struct {
	Name string         `json:"name"`
	Cat  string         `json:"cat,omitempty"`
	Ph   string         `json:"ph"`
	Ts   json.Number    `json:"ts"`
	Dur  json.Number    `json:"dur,omitempty"`
	Pid  int            `json:"pid"`
	Tid  int            `json:"tid"`
	Args map[string]any `json:"args,omitempty"`
}

// traceDoc is the trace_event JSON object format, which both
// chrome://tracing and Perfetto load.
type traceDoc struct {
	TraceEvents []TraceEvent   `json:"traceEvents"`
	OtherData   map[string]any `json:"otherData,omitempty"`
}

// TraceTime renders a cycle count as a microsecond timestamp with two
// decimals (60 ns per cycle ⇒ multiples of 0.06 µs, so two decimals are
// exact). Integer math keeps the string — and therefore the export —
// byte-stable.
func TraceTime(cycles uint64) json.Number {
	ns := cycles * cycleNS
	return json.Number(strconv.FormatUint(ns/1000, 10) + "." +
		pad2((ns%1000)/10))
}

func pad2(v uint64) string {
	if v < 10 {
		return "0" + strconv.FormatUint(v, 10)
	}
	return strconv.FormatUint(v, 10)
}

// WriteTraceEvents writes events as an indented trace_event JSON document.
// Its otherData names the source and the cycle scale, plus the count of
// spans a bounded buffer dropped when there were any.
func WriteTraceEvents(w io.Writer, source string, spansDropped uint64, events []TraceEvent) error {
	doc := traceDoc{
		TraceEvents: events,
		OtherData:   map[string]any{"cycle_ns": cycleNS, "source": source},
	}
	if spansDropped > 0 {
		doc.OtherData["spans_dropped"] = spansDropped
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", " ")
	return enc.Encode(doc)
}

// WriteChromeTrace renders the recorder's scheduling spans and utilization
// timeline as Chrome trace_event JSON: one timeline row ("thread") per
// task, a duration event per scheduling span, and a counter track with the
// per-slice busy-cycle series. Load the file in chrome://tracing or
// https://ui.perfetto.dev to see the §6.2.1 task multiplexing laid out in
// time. Call Recorder.Flush first so the trailing span is closed.
func WriteChromeTrace(w io.Writer, r *Recorder) error {
	// Name the process and the task rows that actually appear.
	events := []TraceEvent{{
		Name: "process_name", Ph: "M", Ts: "0", Pid: 1, Tid: 0,
		Args: map[string]any{"name": "Dorado processor"},
	}}
	var seen [MaxTasks]bool
	for _, sp := range r.Spans() {
		seen[sp.Task] = true
	}
	for t := 0; t < MaxTasks; t++ {
		if !seen[t] {
			continue
		}
		events = append(events, TraceEvent{
			Name: "thread_name", Ph: "M", Ts: "0", Pid: 1, Tid: t,
			Args: map[string]any{"name": r.TaskName(t)},
		})
	}

	// Scheduling spans: complete ("X") events, one per processor tenancy.
	for _, sp := range r.Spans() {
		events = append(events, TraceEvent{
			Name: r.TaskName(sp.Task), Cat: "task", Ph: "X",
			Ts: TraceTime(sp.Start), Dur: TraceTime(sp.End - sp.Start),
			Pid: 1, Tid: sp.Task,
			Args: map[string]any{"cycles": sp.End - sp.Start},
		})
	}

	// Utilization timeline: a counter ("C") series of busy cycles per task
	// over each sampling interval.
	for _, sl := range r.Timeline() {
		args := map[string]any{}
		for t := 0; t < MaxTasks; t++ {
			if sl.Cycles[t] != 0 {
				args[r.TaskName(t)] = sl.Cycles[t]
			}
		}
		if len(args) == 0 {
			continue
		}
		events = append(events, TraceEvent{
			Name: "busy cycles", Cat: "utilization", Ph: "C",
			Ts: TraceTime(sl.Start), Pid: 1, Tid: 0, Args: args,
		})
	}
	return WriteTraceEvents(w, "dorado simulator (internal/obs)", r.SpansDropped(), events)
}
