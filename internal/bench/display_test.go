package bench

import (
	"runtime"
	"testing"

	"dorado/internal/core"
)

// TestFastIODisplayQueueBounded: a display at full memory bandwidth never
// fully drains its command queue, so the controller must reclaim the
// drained prefix as it goes. Ten million cycles of the E5 machine allocate
// nothing once the queue's backing array has settled at its live size.
func TestFastIODisplayQueueBounded(t *testing.T) {
	m, err := BuildFastIOMachine(core.Config{})
	if err != nil {
		t.Fatal(err)
	}
	m.Run(100_000)
	runtime.GC()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	m.Run(10_000_000)
	runtime.ReadMemStats(&after)
	if grew := after.TotalAlloc - before.TotalAlloc; grew > 64<<10 {
		t.Errorf("10 Mcycles of fast I/O allocated %d KiB; the display queue is growing", grew>>10)
	}
}
