package device_test

import (
	"testing"
	"time"

	"dorado/internal/core"
	"dorado/internal/device"
	"dorado/internal/masm"
)

// TestQueuesBounded: service microcode that issues FF Output without ever
// blocking, and a pulse that wakes its task every cycle, are what a fleet
// client can mount through DeviceSpec. Neither can grow a device queue
// past its bound, so the machine's snapshot, which carries every queue,
// is the same size after 1M cycles as after 2M.
func TestQueuesBounded(t *testing.T) {
	const spin = "emu: goto emu\nsvc: ff=output goto svc\n"
	for _, tc := range []struct {
		name  string
		src   string
		bound int
		build func(m *core.Machine) (device.Device, func() int)
	}{
		{"display", spin, device.MaxCommands, func(m *core.Machine) (device.Device, func() int) {
			d := device.NewDisplay(13, m.Mem(), 8, 4)
			return d, d.QueueLen
		}},
		{"scanner", spin, device.MaxCommands, func(m *core.Machine) (device.Device, func() int) {
			d := device.NewScanner(12, m.Mem(), 8, 4)
			return d, d.QueueLen
		}},
		{"pulse", "emu: goto emu\nsvc: block goto svc\n", device.MaxLatencies, func(m *core.Machine) (device.Device, func() int) {
			d := device.NewPulse(14, 1)
			return d, func() int { return len(d.Latencies()) }
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			p, err := masm.AssembleText(tc.src)
			if err != nil {
				t.Fatal(err)
			}
			m, err := core.New(core.Config{})
			if err != nil {
				t.Fatal(err)
			}
			m.Load(&p.Words)
			m.Start(p.MustEntry("emu"))
			d, queued := tc.build(m)
			if err := m.Attach(d); err != nil {
				t.Fatal(err)
			}
			m.SetIOAddress(d.Task(), uint16(d.Task()))
			m.SetTPC(d.Task(), p.MustEntry("svc"))

			start := time.Now()
			var sizes [2]int
			for i := range sizes {
				m.RunCycles(1_000_000)
				if n := queued(); n > tc.bound {
					t.Fatalf("after %dM cycles %d queued, bound %d", i+1, n, tc.bound)
				}
				sizes[i] = len(m.Snapshot())
			}
			t.Logf("2M cycles in %v; %d queued; snapshot %d bytes at 1M, %d at 2M", time.Since(start), queued(), sizes[0], sizes[1])
			if queued() == 0 {
				t.Error("the service routine queued nothing")
			}
			if sizes[0] != sizes[1] {
				t.Errorf("snapshot grew from %d to %d bytes between 1M and 2M cycles", sizes[0], sizes[1])
			}
		})
	}
}
