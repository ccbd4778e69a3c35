package device

import (
	"testing"

	"dorado/internal/memory"
)

func TestScannerWritesBlocks(t *testing.T) {
	m, err := memory.New(memory.Config{})
	if err != nil {
		t.Fatal(err)
	}
	d := NewScanner(12, m, 16, 2)
	d.SetBase(0x9000)
	// Command two destinations up front.
	d.Output(0, 0)
	d.Output(16, 0)
	for now := uint64(0); now < 200; now++ {
		d.Tick(now)
	}
	if d.BlocksMoved() != 2 {
		t.Fatalf("moved %d blocks", d.BlocksMoved())
	}
	// Sequential pixel pattern landed in storage.
	if m.Peek(0x9000) != 1 || m.Peek(0x9000+16) != 17 {
		t.Errorf("block data = %d, %d", m.Peek(0x9000), m.Peek(0x9000+16))
	}
}

func TestScannerWakeupAndOverrun(t *testing.T) {
	m, _ := memory.New(memory.Config{})
	d := NewScanner(12, m, 4, 2)
	for now := uint64(0); now < 100; now++ {
		d.Tick(now)
	}
	if !d.Wakeup() {
		t.Error("scanner with captured blocks not requesting service")
	}
	if d.Overruns() == 0 {
		t.Error("unserviced scanner never overran")
	}
	// Providing destinations drains the FIFO and clears the request.
	d.Output(0, 100)
	d.Output(16, 100)
	for now := uint64(100); now < 140; now++ {
		d.Tick(now)
	}
	if d.BlocksMoved() == 0 {
		t.Error("no blocks moved after destinations arrived")
	}
}

func TestScannerInvalidatesCache(t *testing.T) {
	m, _ := memory.New(memory.Config{})
	// Warm the destination line with processor data.
	r, _, _ := m.Admit(0, 0x9000, false, 0)
	m.Read(0, r, 0)
	m.MD(0, 100)
	d := NewScanner(12, m, 8, 2)
	d.SetBase(0x9000)
	d.Output(0, 0)
	for now := uint64(0); now < 100; now++ {
		d.Tick(now)
	}
	// The processor's next read must see the scanner's data.
	r, _, _ = m.Admit(0, 0x9000, false, 200)
	m.Read(0, r, 200)
	if got := m.MD(0, 300); got != 1 {
		t.Errorf("processor read %d after fast write, want 1", got)
	}
}

// TestScannerSteadyStateAllocatesNothing: a scanner served one
// destination per captured block, as its service microcode serves it,
// reuses its queue's backing array, so a block costs no allocation. A
// queue that drops its head by re-slicing drains its array from the
// front, and the next Output reallocates it.
func TestScannerSteadyStateAllocatesNothing(t *testing.T) {
	m, err := memory.New(memory.Config{})
	if err != nil {
		t.Fatal(err)
	}
	d := NewScanner(12, m, 8, 2)
	var now uint64
	block := func() {
		d.Output(uint16(now%64)*16, now)
		for moved := d.BlocksMoved(); d.BlocksMoved() == moved; now++ {
			d.Tick(now)
		}
	}
	for range 8 {
		block()
	}
	// AllocsPerRun rounds down, and a re-slicing queue reallocates once
	// per two blocks (append rounds a one-element array up to two), so
	// each run moves four blocks.
	if allocs := testing.AllocsPerRun(100, func() {
		for range 4 {
			block()
		}
	}); allocs != 0 {
		t.Errorf("four scanner blocks allocate %.0f times, want 0", allocs)
	}
	if d.QueueLen() != 0 {
		t.Errorf("%d destinations queued after every block moved", d.QueueLen())
	}
}
