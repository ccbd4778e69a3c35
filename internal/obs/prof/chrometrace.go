package prof

import (
	"io"

	"dorado/internal/obs"
)

// WriteChromeTrace renders the profile's superblock spans as Chrome
// trace_event JSON: one "superblocks" row, one duration event per block
// execution named by the block's symbol, exit reason and fused cycle count
// in args. Load it next to the scheduler trace from obs.WriteChromeTrace
// (same encoder, same timeline) to see exactly which events cut fused runs
// short, in chrome://tracing or https://ui.perfetto.dev.
func WriteChromeTrace(w io.Writer, p *Profile) error {
	events := []obs.TraceEvent{{
		Name: "process_name", Ph: "M", Ts: "0", Pid: 2, Tid: 0,
		Args: map[string]any{"name": "Dorado superblocks"},
	}, {
		Name: "thread_name", Ph: "M", Ts: "0", Pid: 2, Tid: 0,
		Args: map[string]any{"name": "superblocks"},
	}}
	for _, sp := range p.Spans {
		events = append(events, obs.TraceEvent{
			Name: sp.Name, Cat: "superblock", Ph: "X",
			Ts: obs.TraceTime(sp.Start), Dur: obs.TraceTime(sp.Cycles), Pid: 2, Tid: 0,
			Args: map[string]any{
				"block":  sp.Block.String(),
				"cycles": sp.Cycles,
				"exit":   sp.Reason,
			},
		})
	}
	return obs.WriteTraceEvents(w, "dorado simulator (internal/obs/prof)", p.SpansDropped, events)
}
