package fleet

import (
	"sync"
	"time"

	"dorado/internal/obs"
)

// This file is the fleet's operation-latency decomposition. Every
// operation's life splits into two intervals the service cares about
// separately:
//
//   - queue wait: submit accepted the operation → a worker picked it up.
//     Grows with load (more sessions than workers, deep per-session
//     queues) and is the half a bigger worker pool or sharding fixes.
//   - service time: pickup → the operation body finished. It covers
//     reviving a parked session first, then the body itself (running the
//     machine, assembling microcode, serializing a snapshot). Grows with
//     the work requested and is the half only a faster simulator fixes.
//
// A slow run is attributable by comparing the two: a fat queue-wait
// histogram with thin service times means queueing, the reverse means
// execution. Both are recorded per operation kind so a snapshot-heavy
// client cannot hide a run-latency regression (and vice versa), and
// exported as Prometheus histogram vectors with op labels
// (dorado_fleet_op_queue_us, dorado_fleet_op_service_us).

// opLatencyBounds bucket queue-wait and service time in microseconds:
// fine-grained under a millisecond (the uncontended dequeue-and-run
// range), exponential out to 10 s (a 100M-cycle run or a drain stall).
var opLatencyBounds = []uint64{
	50, 100, 250, 500,
	1_000, 2_500, 5_000, 10_000, 25_000, 50_000, 100_000,
	250_000, 500_000, 1_000_000, 2_500_000, 10_000_000,
}

// opHistograms holds the per-operation-kind latency histograms. Every
// worker observes them (one call per completed operation) and /metrics
// scrapes read them, so mu covers both.
type opHistograms struct {
	mu      sync.Mutex
	queue   [numOpKinds]obs.Histogram
	service [numOpKinds]obs.Histogram
}

func newOpHistograms() *opHistograms {
	var h opHistograms
	for k := opKind(0); k < numOpKinds; k++ {
		h.queue[k] = obs.NewHistogram(opLatencyBounds)
		h.service[k] = obs.NewHistogram(opLatencyBounds)
	}
	return &h
}

// observe records one completed operation. ran reports whether the body
// actually executed — a canceled or revive-failed operation still waited
// in the queue (that interval is real load data) but has no service time
// worth recording.
func (h *opHistograms) observe(k opKind, queue, service time.Duration, ran bool) {
	h.mu.Lock()
	defer h.mu.Unlock()
	h.queue[k].Observe(uint64(max(queue.Microseconds(), 0)))
	if ran {
		h.service[k].Observe(uint64(max(service.Microseconds(), 0)))
	}
}

// snapshot renders the queue-wait and the service-time histograms as
// labeled vectors.
func (h *opHistograms) snapshot() (queue, service []obs.LabeledHistogram) {
	h.mu.Lock()
	defer h.mu.Unlock()
	return snapshotVec(&h.queue), snapshotVec(&h.service)
}

// snapshotVec renders one of the two histogram sets as a labeled vector
// in opKind order, so exports are deterministic.
func snapshotVec(hs *[numOpKinds]obs.Histogram) []obs.LabeledHistogram {
	out := make([]obs.LabeledHistogram, 0, int(numOpKinds))
	for k := opKind(0); k < numOpKinds; k++ {
		out = append(out, obs.LabeledHistogram{
			Label: `op="` + k.String() + `"`,
			Hist:  hs[k].Snapshot(),
		})
	}
	return out
}
