package bench

import (
	"os"
	"testing"

	"dorado/internal/core"
)

// devicesSource reads the microcode of perfbench's devices sessions.
func devicesSource(t *testing.T) string {
	t.Helper()
	src, err := os.ReadFile("../../examples/microcode/devices.dasm")
	if err != nil {
		t.Fatal(err)
	}
	return string(src)
}

// TestDevicesMachineShape pins what the machine perfbench's devices
// workload builds does per 1M steady cycles (after 100k of warm-up), the
// shape EXPERIMENTS.md's E-HOLD entry records. The display's fast I/O
// takes every storage cycle, moving a block every 8 cycles with no
// underrun, so the disk task holds on its first store (its first
// instruction is the only one it ever retires) for 75% of all cycles, its
// FIFO overruns on every word, and task 0 never gets the processor back
// after the first few dozen cycles.
func TestDevicesMachineShape(t *testing.T) {
	m, disk, disp, err := buildDevices(core.Config{}, devicesSource(t))
	if err != nil {
		t.Fatal(err)
	}
	m.RunCycles(100_000)
	s0, blocks0, under0, over0 := m.Stats(), disp.BlocksMoved(), disp.Underruns(), disk.Overruns()
	m.RunCycles(1_000_000)
	s := m.Stats()
	for _, c := range []struct {
		name      string
		got, want uint64
	}{
		{"display blocks moved", disp.BlocksMoved() - blocks0, 125_000},
		{"display underruns", disp.Underruns() - under0, 0},
		{"held cycles", s.Holds - s0.Holds, 750_000},
		{"cycles held on storage", s.HoldMem - s0.HoldMem, 750_000},
		{"disk task cycles", s.TaskCycles[11] - s0.TaskCycles[11], 750_000},
		{"display task cycles", s.TaskCycles[13] - s0.TaskCycles[13], 250_000},
		{"disk FIFO overruns", disk.Overruns() - over0, 37_037},
		{"disk instructions retired, ever", s.TaskExecuted[11], 1},
		{"task 0 cycles, ever", s.TaskCycles[0], 36},
	} {
		if c.got != c.want {
			t.Errorf("%s: %d per 1M steady cycles, want %d", c.name, c.got, c.want)
		}
	}
}
