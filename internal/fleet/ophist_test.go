package fleet

import (
	"io"
	"net/http"
	"strconv"
	"strings"
	"sync"
	"testing"
)

// opCounts scrapes /metrics and returns each dorado_fleet_op_*_us
// histogram's sample count, keyed by family and op label.
func opCounts(url string) (map[string]uint64, error) {
	resp, err := http.Get(url + "/metrics")
	if err != nil {
		return nil, err
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		return nil, err
	}
	counts := map[string]uint64{}
	for _, line := range strings.Split(string(body), "\n") {
		name, value, _ := strings.Cut(line, " ")
		if !strings.HasPrefix(name, "dorado_fleet_op_") || !strings.Contains(name, "_us_count{") {
			continue
		}
		if counts[name], err = strconv.ParseUint(value, 10, 64); err != nil {
			return nil, err
		}
	}
	return counts, nil
}

// TestOpHistogramsUnderScrapes: several workers observe the op-latency
// histograms while /metrics scrapes read them (the race detector checks
// the lock). No scraped count ever falls, and once the drivers finish,
// each op kind's queue-wait and service-time counts equal the operations
// of that kind that ran.
func TestOpHistogramsUnderScrapes(t *testing.T) {
	const sessions, iterations = 4, 20
	m, ts := newTestServer(t, Config{Workers: 4, MaxSessions: sessions})

	stop := make(chan struct{})
	scrapes := make(chan int)
	go func() {
		n, prev := 0, map[string]uint64{}
		defer func() { scrapes <- n }()
		for {
			counts, err := opCounts(ts.URL)
			if err != nil {
				t.Error(err)
				return
			}
			for name, c := range counts {
				if c < prev[name] {
					t.Errorf("%s fell from %d to %d", name, prev[name], c)
				}
			}
			prev = counts
			n++
			select {
			case <-stop:
				return
			default:
			}
		}
	}()

	var wg sync.WaitGroup
	for range sessions {
		wg.Add(1)
		go func() {
			defer wg.Done()
			id, err := m.Create(smallSpec())
			if err != nil {
				t.Errorf("create: %v", err)
				return
			}
			if _, err := m.LoadMicrocode(tctx, id, SpinMicrocode, "start"); err != nil {
				t.Errorf("%s: load: %v", id, err)
				return
			}
			for range iterations {
				if _, err := m.Run(tctx, id, 500); err != nil {
					t.Errorf("%s: run: %v", id, err)
					return
				}
				if _, err := m.Snapshot(tctx, id); err != nil {
					t.Errorf("%s: snapshot: %v", id, err)
					return
				}
				if _, err := m.ReadState(tctx, id); err != nil {
					t.Errorf("%s: state: %v", id, err)
					return
				}
			}
		}()
	}
	wg.Wait()
	close(stop)
	t.Logf("%d scrapes while the drivers ran", <-scrapes)

	counts, err := opCounts(ts.URL)
	if err != nil {
		t.Fatal(err)
	}
	want := map[opKind]uint64{
		opMicrocode: sessions,
		opRun:       sessions * iterations,
		opSnapshot:  sessions * iterations,
		opState:     sessions * iterations,
	}
	for k := opKind(0); k < numOpKinds; k++ {
		for _, family := range []string{"queue", "service"} {
			name := "dorado_fleet_op_" + family + `_us_count{op="` + k.String() + `"}`
			if got, ok := counts[name]; !ok || got != want[k] {
				t.Errorf("%s = %d (exported: %v), want %d", name, got, ok, want[k])
			}
		}
	}
}
