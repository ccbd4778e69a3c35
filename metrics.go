package dorado

import (
	"errors"
	"io"

	"dorado/internal/obs"
	"dorado/internal/trace"
)

// Observability types re-exported from internal/obs. Attach a Metrics
// recorder with WithMetrics and read it while the machine is paused: the
// run loop writes it without locks, and between runs the System exports
// everything in standard formats.
type (
	// Metrics is the cycle-level observability recorder.
	Metrics = obs.Recorder
	// MetricsSnapshot is an ordered set of metric families ready for
	// Prometheus rendering.
	MetricsSnapshot = obs.Snapshot
	// TaskSpan is one scheduling interval of the recorded timeline.
	TaskSpan = obs.Span
)

// NewMetrics builds a recorder.
func NewMetrics() *Metrics { return obs.NewRecorder() }

// Snapshot assembles the machine's counters (and the recorder's, when one
// is attached) into an ordered metric set.
func (s *System) Snapshot() *MetricsSnapshot {
	return trace.MetricsSnapshot(s.Machine, s.Metrics)
}

// WritePrometheus renders the current counters in the Prometheus text
// exposition format. Byte-deterministic for identical runs.
func (s *System) WritePrometheus(w io.Writer) error {
	s.flushMetrics()
	return obs.WritePrometheus(w, s.Snapshot())
}

// WriteChromeTrace renders the recorded scheduling spans and utilization
// timeline as Chrome trace_event JSON, loadable in chrome://tracing and
// Perfetto. Requires WithMetrics; call while the machine is paused.
func (s *System) WriteChromeTrace(w io.Writer) error {
	if s.Metrics == nil {
		return errors.New("dorado: WriteChromeTrace needs WithMetrics")
	}
	s.flushMetrics()
	return obs.WriteChromeTrace(w, s.Metrics)
}

// ServeDebug starts an HTTP server exposing /metrics (Prometheus),
// /debug/vars (expvar) and /debug/pprof on addr (use "127.0.0.1:0" for an
// ephemeral port; the chosen address is Addr() on the returned server).
// Each /metrics scrape calls snapshot, which must be safe to run
// concurrently with the simulation; cmd/dorado's publishes the snapshot
// it last took between run slices.
func ServeDebug(addr string, snapshot func() *MetricsSnapshot) (*obs.DebugServer, error) {
	return obs.ServeDebug(addr, snapshot)
}

func (s *System) flushMetrics() {
	if s.Metrics != nil {
		s.Metrics.Flush(s.Machine.Cycle())
	}
}
