package device

import "fmt"

// WordSource is a slow-I/O input device that produces one 16-bit word every
// CyclesPerWord cycles into a small FIFO — the shape of the Dorado's disk
// and network receivers. It wakes its task when WordsPerWakeup words are
// available; microcode drains them with FF Input and blocks.
//
// Rates from the paper: the 10 Mbit/s disk produces a word every
// 16 bits / 10 Mbit/s = 1.6 µs ≈ 27 cycles; its microcode takes two words
// per wakeup in three microinstructions, consuming ≈5% of the processor
// (§7). The ≈3 Mbit/s Ethernet is the same device at ≈89 cycles/word.
type WordSource struct {
	Nop
	CyclesPerWord  int
	WordsPerWakeup int

	// The FIFO is a fixed 16-word ring (the hardware cap below), so the
	// per-cycle Tick/Input path never allocates.
	fifo     [16]uint16
	head, n  int
	next     uint16 // generated data pattern
	dueAt    uint64
	overruns uint64 // words dropped because the FIFO was full
	produced uint64
	consumed uint64
	started  bool
}

// NewWordSource builds a word-stream input device on the given task.
func NewWordSource(task, cyclesPerWord, wordsPerWakeup int) *WordSource {
	return &WordSource{
		Nop:            Nop{TaskNum: task},
		CyclesPerWord:  cyclesPerWord,
		WordsPerWakeup: wordsPerWakeup,
	}
}

// Tick implements Device: a new word arrives every CyclesPerWord cycles.
func (d *WordSource) Tick(now uint64) {
	if !d.started {
		d.started = true
		d.dueAt = now + uint64(d.CyclesPerWord)
		return
	}
	if now < d.dueAt {
		return
	}
	d.dueAt += uint64(d.CyclesPerWord)
	if d.n >= len(d.fifo) {
		d.overruns++ // real hardware would lose data; §3's "fast devices
		return       // should not slow down the emulator too much" cuts both ways
	}
	d.fifo[(d.head+d.n)&15] = d.next
	d.n++
	d.next++
	d.produced++
}

// Wakeup implements Device: request service when a service unit is ready.
func (d *WordSource) Wakeup() bool { return d.n >= d.WordsPerWakeup }

// IdleUntil implements Idler: between word arrivals the device is inert —
// Tick returns without touching state until dueAt, and the FIFO level (and
// so the wakeup line, up or down) moves only at an arrival or through
// Input, which ends the quiet window.
func (d *WordSource) IdleUntil(now uint64) uint64 {
	if !d.started {
		return now
	}
	return d.dueAt
}

// Input implements Device: microcode takes one word.
func (d *WordSource) Input(now uint64) uint16 {
	if d.n == 0 {
		return 0xDEAD // reading an empty FIFO is a microcode bug
	}
	v := d.fifo[d.head]
	d.head = (d.head + 1) & 15
	d.n--
	d.consumed++
	return v
}

// Produced returns the number of words generated so far.
func (d *WordSource) Produced() uint64 { return d.produced }

// Consumed returns the number of words the microcode has taken.
func (d *WordSource) Consumed() uint64 { return d.consumed }

// Overruns returns the number of words lost to FIFO overflow (0 when the
// microcode keeps up).
func (d *WordSource) Overruns() uint64 { return d.overruns }

// Loopback is an always-ready slow-I/O device: Input always has data and
// Output always accepts. It measures the peak IODATA rate (one word per
// cycle = 265 Mbit/s, §5.8) without a device-side rate limit.
type Loopback struct {
	Nop
	wake bool
	seq  uint16

	in, out uint64
	last    uint16
}

// NewLoopback builds a loopback device on the given task. It does not
// request wakeups by itself; tests drive its task explicitly or call Arm.
func NewLoopback(task int) *Loopback { return &Loopback{Nop: Nop{TaskNum: task}} }

// Arm raises (or drops) the wakeup line.
func (d *Loopback) Arm(on bool) { d.wake = on }

// Wakeup implements Device.
func (d *Loopback) Wakeup() bool { return d.wake }

// IdleUntil implements Idler: Tick does nothing and the wakeup line only
// moves when the host calls Arm, between runs, so the loopback is quiet
// forever, armed or not.
func (d *Loopback) IdleUntil(uint64) uint64 { return ^uint64(0) }

// Input implements Device: an endless counter pattern.
func (d *Loopback) Input(now uint64) uint16 {
	d.in++
	d.seq++
	return d.seq
}

// Output implements Device.
func (d *Loopback) Output(v uint16, now uint64) {
	d.out++
	d.last = v
}

// Words returns the Input and Output word counts.
func (d *Loopback) Words() (in, out uint64) { return d.in, d.out }

// Last returns the last word written to the device.
func (d *Loopback) Last() uint16 { return d.last }

// Pulse wakes its task once every Period cycles and counts how long the
// processor takes to respond — the task-switch latency probe (§6.2.1 says
// a wakeup reaches the running task in a minimum of two cycles).
type Pulse struct {
	Nop
	Period int

	wake    bool
	raised  uint64 // cycle the wakeup was raised
	nextAt  uint64
	lats    []uint64
	started bool
}

// NewPulse builds a periodic wakeup device.
func NewPulse(task, period int) *Pulse {
	return &Pulse{Nop: Nop{TaskNum: task}, Period: period}
}

// Tick implements Device.
func (d *Pulse) Tick(now uint64) {
	if !d.started {
		d.started = true
		d.nextAt = now + uint64(d.Period)
		return
	}
	if !d.wake && now >= d.nextAt {
		d.wake = true
		d.raised = now
		d.nextAt += uint64(d.Period)
	}
}

// Wakeup implements Device.
func (d *Pulse) Wakeup() bool { return d.wake }

// IdleUntil implements Idler: quiet until the next scheduled pulse.
func (d *Pulse) IdleUntil(now uint64) uint64 {
	if !d.started || d.wake {
		return now
	}
	return d.nextAt
}

// NotifyNext implements Device: service is imminent; record the latency and
// drop the request (one service unit per pulse).
func (d *Pulse) NotifyNext(now uint64) {
	if d.wake {
		d.lats = append(d.lats, now-d.raised)
		d.wake = false
	}
}

// Latencies returns the observed wakeup→NEXT latencies in cycles.
func (d *Pulse) Latencies() []uint64 { return d.lats }

// String summarizes the pulse statistics.
func (d *Pulse) String() string {
	return fmt.Sprintf("pulse(task %d, %d wakeups)", d.TaskNum, len(d.lats))
}
