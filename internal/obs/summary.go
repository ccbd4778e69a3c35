package obs

import "strconv"

// This file is the JSON face of a Recorder: a Summary condenses the
// counters, histograms, and utilization timeline into a document small
// enough to serve from an HTTP endpoint (the fleet's
// GET /v1/sessions/{id}/obs) without shipping every recorded span. The
// Chrome-trace export (chrometrace.go) remains the full-fidelity view;
// the Summary is the at-a-glance one.

// BucketCount is one histogram bucket in a Summary: the number of samples
// at or below Le ("+Inf" for the overflow bucket). Counts are
// per-bucket, not cumulative — the JSON reader sums if it wants CDFs.
type BucketCount struct {
	Le    string `json:"le"`
	Count uint64 `json:"count"`
}

// HistogramSummary is the JSON shape of one histogram: totals, mean, and
// the non-empty buckets.
type HistogramSummary struct {
	Count   uint64        `json:"count"`
	Sum     uint64        `json:"sum"`
	Mean    float64       `json:"mean"`
	Buckets []BucketCount `json:"buckets,omitempty"`
}

// SummarizeHistogram condenses a histogram into its JSON summary,
// dropping empty buckets.
func SummarizeHistogram(h *Histogram) HistogramSummary {
	sn := h.Snapshot()
	s := HistogramSummary{Count: sn.Total, Sum: sn.Sum}
	if sn.Total > 0 {
		s.Mean = float64(sn.Sum) / float64(sn.Total)
	}
	for i, c := range sn.Counts {
		if c == 0 {
			continue
		}
		le := "+Inf"
		if i < len(sn.Bounds) {
			le = strconv.FormatUint(sn.Bounds[i], 10)
		}
		s.Buckets = append(s.Buckets, BucketCount{Le: le, Count: c})
	}
	return s
}

// TaskCount is one per-task counter sample in a Summary.
type TaskCount struct {
	Task  int    `json:"task"`
	Name  string `json:"name"`
	Count uint64 `json:"count"`
}

// Summary is the condensed JSON view of a Recorder: wakeup counters, the
// two latency histograms, and the utilization timeline rolled up to
// per-task busy-cycle totals. Build one with Summarize.
type Summary struct {
	// Wakeups lists rising wakeup-line edges per task (nonzero tasks only).
	Wakeups []TaskCount `json:"wakeups,omitempty"`
	// WakeupsTotal sums the per-task edges, excluding task 0 (wired high).
	WakeupsTotal uint64 `json:"wakeups_total"`
	// HoldLatency is the hold-episode-length histogram (§5.7), in cycles.
	HoldLatency HistogramSummary `json:"hold_latency"`
	// WakeupToRun is the wakeup-edge-to-first-run histogram (§5.4), in
	// cycles; 2 is the paper's undisturbed case.
	WakeupToRun HistogramSummary `json:"wakeup_to_run"`
	// Utilization is the timeline rolled up: busy cycles per task summed
	// over every recorded slice (nonzero tasks only).
	Utilization []TaskCount `json:"utilization,omitempty"`
	// TimelineInterval is the sampling period in cycles; Slices is how
	// many samples the timeline holds, Spans how many scheduling spans.
	TimelineInterval uint64 `json:"timeline_interval"`
	Slices           int    `json:"slices"`
	Spans            int    `json:"spans"`
	// SpansDropped and SlicesLost count data shed to the buffer caps.
	SpansDropped uint64 `json:"spans_dropped,omitempty"`
	SlicesLost   uint64 `json:"slices_lost,omitempty"`
}

// Summarize condenses the recorder's collected data. Like Spans and
// Timeline it is export-only: call while the machine is paused, after
// Flush, so the tail span and open hold episode are accounted for.
func Summarize(r *Recorder) Summary {
	s := Summary{
		WakeupsTotal:     r.WakeupsTotal(),
		HoldLatency:      SummarizeHistogram(r.HoldLatency()),
		WakeupToRun:      SummarizeHistogram(r.WakeupToRun()),
		TimelineInterval: r.TimelineInterval(),
		Slices:           len(r.Timeline()),
		Spans:            len(r.Spans()),
		SpansDropped:     r.SpansDropped(),
		SlicesLost:       r.slicesLost,
	}
	var busy [MaxTasks]uint64
	for _, sl := range r.Timeline() {
		for t := 0; t < MaxTasks; t++ {
			busy[t] += uint64(sl.Cycles[t])
		}
	}
	for t := 0; t < MaxTasks; t++ {
		if w := r.Wakeups(t); w != 0 {
			s.Wakeups = append(s.Wakeups, TaskCount{Task: t, Name: r.TaskName(t), Count: w})
		}
		if busy[t] != 0 {
			s.Utilization = append(s.Utilization, TaskCount{Task: t, Name: r.TaskName(t), Count: busy[t]})
		}
	}
	return s
}
