package obs

import "slices"

// HoldLatencyBounds bucket the length of hold episodes in cycles. The
// paper's Table 3 puts typical holds at a few cycles (cache hit wait) with
// a tail out to storage-miss latency, so the buckets are fine-grained low
// and exponential high.
var HoldLatencyBounds = []uint64{1, 2, 3, 4, 6, 8, 12, 16, 24, 32, 48, 64, 128, 256}

// WakeupBounds bucket wakeup-to-run latency in cycles. The claim under
// test (§5.4) is that an undisturbed wakeup reaches execution in exactly
// two cycles, so every small value gets its own bucket.
var WakeupBounds = []uint64{1, 2, 3, 4, 5, 6, 8, 12, 16, 32, 64, 128}

// Histogram is a fixed-bucket cumulative histogram over uint64 samples.
// Its fields are plain: a recorder's histograms are read while their
// machine is paused, and a histogram that several goroutines share needs
// its owner's lock around Observe and every read.
type Histogram struct {
	bounds []uint64 // upper bounds, ascending; an implicit +Inf bucket follows
	counts []uint64
	sum    uint64
	total  uint64
}

// NewHistogram builds a histogram with the given ascending upper bounds.
func NewHistogram(bounds []uint64) Histogram {
	return Histogram{bounds: bounds, counts: make([]uint64, len(bounds)+1)}
}

// Observe records one sample.
func (h *Histogram) Observe(v uint64) {
	i := 0
	for i < len(h.bounds) && v > h.bounds[i] {
		i++
	}
	h.counts[i]++
	h.sum += v
	h.total++
}

// Count returns the number of samples observed.
func (h *Histogram) Count() uint64 { return h.total }

// Sum returns the sum of all observed samples.
func (h *Histogram) Sum() uint64 { return h.sum }

// Mean returns the average sample, or 0 with no samples.
func (h *Histogram) Mean() float64 {
	if h.total == 0 {
		return 0
	}
	return float64(h.sum) / float64(h.total)
}

// Bounds returns the bucket upper bounds (excluding the implicit +Inf).
func (h *Histogram) Bounds() []uint64 { return h.bounds }

// BucketCount returns the sample count of bucket i (i == len(Bounds())
// addresses the +Inf bucket).
func (h *Histogram) BucketCount(i int) uint64 { return h.counts[i] }

// HistogramSnapshot is a point-in-time copy for exporters.
type HistogramSnapshot struct {
	Bounds []uint64 // ascending upper bounds; +Inf bucket is implicit
	Counts []uint64 // len(Bounds)+1 per-bucket counts
	Sum    uint64
	Total  uint64
}

// Snapshot copies the histogram.
func (h *Histogram) Snapshot() HistogramSnapshot {
	return HistogramSnapshot{Bounds: h.bounds, Counts: slices.Clone(h.counts), Sum: h.sum, Total: h.total}
}
