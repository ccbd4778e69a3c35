package device

import (
	"testing"

	"dorado/internal/memory"
	"dorado/internal/state"
)

func TestWordSourceCadence(t *testing.T) {
	d := NewWordSource(9, 10, 2)
	if d.Task() != 9 {
		t.Fatalf("task = %d", d.Task())
	}
	for now := uint64(0); now <= 100; now++ {
		d.Tick(now)
	}
	// Started at 0, first word due at 10, then every 10: words at 10..100.
	if got := d.Produced(); got != 10 {
		t.Errorf("produced %d words in 100 cycles at 1/10", got)
	}
}

func TestWordSourceWakeupThreshold(t *testing.T) {
	d := NewWordSource(9, 5, 2)
	now := uint64(0)
	for ; !d.Wakeup(); now++ {
		if now > 100 {
			t.Fatal("never woke")
		}
		d.Tick(now)
	}
	// Two words buffered; draining one drops the request.
	if v := d.Input(now); v != 0 {
		t.Errorf("first word = %d", v)
	}
	if d.Wakeup() {
		t.Error("wakeup held with one word below threshold")
	}
	if v := d.Input(now); v != 1 {
		t.Errorf("second word = %d", v)
	}
	if d.Consumed() != 2 {
		t.Errorf("consumed = %d", d.Consumed())
	}
}

func TestWordSourceOverrun(t *testing.T) {
	d := NewWordSource(9, 1, 2)
	for now := uint64(0); now < 100; now++ {
		d.Tick(now)
	}
	if d.Overruns() == 0 {
		t.Error("unserviced source never overran")
	}
}

func TestLoopback(t *testing.T) {
	d := NewLoopback(3)
	if d.Wakeup() {
		t.Error("unarmed loopback requesting")
	}
	d.Arm(true)
	if !d.Wakeup() {
		t.Error("armed loopback not requesting")
	}
	a, b := d.Input(0), d.Input(1)
	if b != a+1 {
		t.Errorf("sequence broken: %d, %d", a, b)
	}
	d.Output(0x55AA, 2)
	if d.Last() != 0x55AA {
		t.Errorf("Last = %#04x", d.Last())
	}
	in, out := d.Words()
	if in != 2 || out != 1 {
		t.Errorf("words = %d,%d", in, out)
	}
}

func TestPulseLatencyRecording(t *testing.T) {
	d := NewPulse(12, 50)
	var served int
	for now := uint64(0); now < 500; now++ {
		d.Tick(now)
		if d.Wakeup() {
			// Simulate the processor noticing two cycles later.
			d.NotifyNext(now + 2)
			served++
		}
	}
	lats := d.Latencies()
	if len(lats) != served || served == 0 {
		t.Fatalf("latencies %d, served %d", len(lats), served)
	}
	for _, l := range lats {
		if l != 2 {
			t.Errorf("latency %d, want 2", l)
		}
	}
}

func TestDisplayDemandsAndConsumes(t *testing.T) {
	m, err := memory.New(memory.Config{})
	if err != nil {
		t.Fatal(err)
	}
	for i := uint32(0); i < 64; i++ {
		m.Poke(0x2000+i, uint16(i))
	}
	d := NewDisplay(15, m, 8, 2)
	d.SetBase(0x2000)
	if !d.Wakeup() {
		t.Fatal("empty display not requesting")
	}
	// Command two blocks; wakeup should drop at capacity.
	d.Output(0, 0)
	d.Output(16, 0)
	if d.Wakeup() {
		t.Error("display requesting beyond buffer capacity")
	}
	for now := uint64(1); now < 40; now++ {
		d.Tick(now)
	}
	if d.BlocksMoved() != 2 {
		t.Errorf("blocks moved = %d", d.BlocksMoved())
	}
	if d.Checksum() == 0 {
		t.Error("checksum never accumulated")
	}
}

func TestDisplayUnderrunWhenStarved(t *testing.T) {
	m, _ := memory.New(memory.Config{})
	d := NewDisplay(15, m, 4, 2)
	for now := uint64(0); now < 100; now++ {
		d.Tick(now) // nobody commands blocks
	}
	if d.Underruns() == 0 {
		t.Error("starved display reported no underruns")
	}
}

func TestNopDevice(t *testing.T) {
	var d Device = &Nop{TaskNum: 4}
	if d.Task() != 4 || d.Wakeup() || d.Atten() || d.Input(0) != 0 {
		t.Error("Nop misbehaves")
	}
	d.Tick(0)
	d.Output(1, 0)
	d.Control(1, 0)
	d.NotifyNext(0)
}

// TestRestoreBoundsQueues: a snapshot whose display queue or scanner
// destinations exceed the bound Output keeps is refused; one at the bound
// restores. A pulse snapshot with more latencies than NotifyNext keeps,
// as a build without the bound wrote, restores the first maxLatencies.
func TestRestoreBoundsQueues(t *testing.T) {
	m, err := memory.New(memory.Config{})
	if err != nil {
		t.Fatal(err)
	}
	restore := func(from, to Device) error {
		enc := state.Encode(0)
		enc.Section("TEST")
		from.State(enc)
		dec, err := state.Decode(enc.Bytes())
		if err != nil {
			return err
		}
		dec.Section("TEST")
		to.State(dec)
		return dec.Finish()
	}
	for _, tc := range []struct {
		name  string
		queue func(n int) Device // a device holding n block commands
		fresh Device
	}{
		{"display", func(n int) Device { return &Display{pending: make([]uint32, n)} }, NewDisplay(13, m, 8, 4)},
		{"scanner", func(n int) Device { return &Scanner{dests: make([]uint32, n)} }, NewScanner(12, m, 8, 4)},
	} {
		if err := restore(tc.queue(maxCommands), tc.fresh); err != nil {
			t.Errorf("%s: a queue at its bound: %v", tc.name, err)
		}
		if err := restore(tc.queue(maxCommands+1), tc.fresh); err == nil {
			t.Errorf("%s: a queue past its bound restored", tc.name)
		}
	}

	old := &Pulse{lats: make([]uint64, maxLatencies+100)}
	for i := range old.lats {
		old.lats[i] = uint64(i)
	}
	p := NewPulse(14, 1)
	if err := restore(old, p); err != nil {
		t.Fatalf("pulse with %d latencies: %v", len(old.lats), err)
	}
	if got := p.Latencies(); len(got) != maxLatencies || got[maxLatencies-1] != maxLatencies-1 {
		t.Errorf("restored %d latencies ending %d, want the first %d", len(got), got[len(got)-1], maxLatencies)
	}
}
