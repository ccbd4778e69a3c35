package fleet

import (
	"context"
	"fmt"
	"runtime"
	"sync"
	"time"

	"dorado/internal/bench"
)

// SpinMicrocode is the fleet benchmark workload: a two-instruction counter
// loop that never halts, so a session can absorb any cycle budget. It is
// also the smallest useful smoke input for the load-microcode API.
const SpinMicrocode = `
; fleet scaling workload: increment T forever
start:  const=0 alu=b lc=t
loop:   alu=a+1 a=t lc=t goto loop
`

// Every fleet point's sessions run scalingOps run operations of
// scalingCycles cycles each inside the timed region.
const (
	scalingCycles = 250_000
	scalingOps    = 8
)

// MeasureScaling measures aggregate fleet throughput at each session count
// in sessions, in order; the first is the scaling baseline. A fresh
// Manager (GOMAXPROCS workers) runs n sessions of the spin workload, each
// driven by its own goroutine submitting run operations back to back —
// the saturated-service shape, every session always having work — and the
// point records total simulated cycles over wall time. Each point is
// measured plain and then, on another fresh Manager, with every session
// carrying an observability recorder (Spec.Metrics), whose rate fills
// MetricsCyclesPerSec. On a host with GOMAXPROCS ≥ n the aggregate should
// approach n × the one-session rate; the recorded Workers field says what
// parallelism was actually available.
func MeasureScaling(sessions []int) ([]bench.FleetPoint, error) {
	var points []bench.FleetPoint
	for _, n := range sessions {
		p, err := measureFleet(n, false)
		if err != nil {
			return points, err
		}
		instr, err := measureFleet(n, true)
		if err != nil {
			return points, err
		}
		p.MetricsCyclesPerSec = instr.CyclesPerSec
		p.Scaling = 1
		if len(points) > 0 {
			p.Scaling = p.CyclesPerSec / points[0].CyclesPerSec
		}
		points = append(points, p)
	}
	return points, nil
}

func measureFleet(n int, metrics bool) (bench.FleetPoint, error) {
	m := New(Config{Workers: runtime.GOMAXPROCS(0), MaxSessions: n, QueueDepth: 2})
	defer m.Drain(context.Background()) //nolint:errcheck // Background never expires

	ctx := context.Background()
	ids := make([]string, n)
	for i := range ids {
		id, err := m.Create(Spec{Metrics: metrics})
		if err != nil {
			return bench.FleetPoint{}, err
		}
		if _, err := m.LoadMicrocode(ctx, id, SpinMicrocode, "start"); err != nil {
			return bench.FleetPoint{}, err
		}
		// Warm the machine (caches, predecode, host branch predictor).
		if _, err := m.Run(ctx, id, scalingCycles/4); err != nil {
			return bench.FleetPoint{}, err
		}
		ids[i] = id
	}

	var (
		wg     sync.WaitGroup
		mu     sync.Mutex
		total  uint64
		firstE error
	)
	start := time.Now()
	for _, id := range ids {
		wg.Add(1)
		go func(id string) {
			defer wg.Done()
			var ran uint64
			for range scalingOps {
				r, err := m.Run(ctx, id, scalingCycles)
				if err != nil {
					mu.Lock()
					if firstE == nil {
						firstE = fmt.Errorf("fleet bench: session %s: %w", id, err)
					}
					mu.Unlock()
					return
				}
				ran += r.Ran
			}
			mu.Lock()
			total += ran
			mu.Unlock()
		}(id)
	}
	wg.Wait()
	elapsed := time.Since(start)
	if firstE != nil {
		return bench.FleetPoint{}, firstE
	}
	sec := elapsed.Seconds()
	return bench.FleetPoint{
		Sessions:     n,
		Workers:      m.Workers(),
		Gomaxprocs:   runtime.GOMAXPROCS(0),
		SimCycles:    total,
		HostSeconds:  sec,
		CyclesPerSec: float64(total) / sec,
	}, nil
}
