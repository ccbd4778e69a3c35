// Package core implements the Dorado processor: the paper's primary
// contribution. It executes the microinstruction set of internal/microcode
// one 60 ns cycle at a time, with:
//
//   - 16 fixed-priority microcode tasks multiplexed over the processor,
//     switched on demand with zero overhead (§5.1–5.3): all vital state
//     (TPC, LINK, T, MD, IOADDRESS, branch conditions) is task-indexed;
//   - the two-stage task-arbitration pipeline of §5.4/§6.2.1 (WAKEUP latch →
//     priority encode → TPC read → switch), reproducing the two-cycle
//     wakeup-to-run latency and two-cycle minimum grain;
//   - Hold (§5.7): an instruction that uses not-ready memory data, starts a
//     reference the memory cannot accept, or consumes IFU output that is
//     not ready becomes "no-op, jump to self" while the clocks keep running,
//     so higher-priority tasks absorb the dead cycles;
//   - the data section of §6.3: 16-bit ALU behind ALUFM, 256-word RM bank
//     addressed through RBASE, four 64-word hardware stacks with
//     overflow/underflow checking, task-specific T, shared COUNT and Q,
//     the 32-bit barrel shifter with zero/MD masking, and the FF catalog;
//   - data bypassing (§5.6): architecturally, results of instruction n are
//     visible to instruction n+1; the Model-0 ablation (Options.NoBypass)
//     delays register-file writes by one instruction, reproducing the
//     behavior the paper calls "a number of subtle bugs and a significant
//     loss of performance".
//
// Pipeline fidelity: the real machine overlaps fetch and execute over three
// cycles (Figure 2), but with universal bypassing the architectural effect
// is exactly one microinstruction per cycle, which is how the simulator
// executes. The timing phenomena the paper analyzes — Hold, wakeup latency,
// allocation grain, branch cost, bypass cost — are modeled explicitly,
// several of them behind Options ablations so the paper's design arguments
// can be re-measured.
package core

import (
	"fmt"

	"dorado/internal/device"
	"dorado/internal/ifu"
	"dorado/internal/memory"
	"dorado/internal/microcode"
	"dorado/internal/obs"
)

// CycleNS is the machine cycle time in nanoseconds (60 ns, §1; stitchwelded
// prototypes ran at 50 ns, §6.4).
const CycleNS = 60

// NumTasks is the number of microcode priority levels (§5.1).
const NumTasks = 16

// StackWords is the depth of one hardware stack (§6.3.3: "four stacks of
// 64 words each"); STACKPTR is [stack:2][word:6].
const StackWords = 64

// NumStacks is the number of hardware stacks (§6.3.3).
const NumStacks = 4

// Options select the paper's design-alternative ablations. The zero value
// is the Dorado as built.
type Options struct {
	// NoBypass reproduces the Model-0 gaps in bypass logic (§5.6):
	// register-file writes become visible to the *second* following
	// instruction instead of the first. Microcode that has not been padded
	// (masm's PadForNoBypass) computes wrong answers — exactly the paper's
	// "subtle bugs".
	NoBypass bool
	// DelayedBranch reproduces the conventional alternative to the
	// late-condition-select branch (§5.5): every conditional branch inserts
	// one dead cycle for the target fetch.
	DelayedBranch bool
	// ExplicitNotify reproduces the simpler task-scheduler design of
	// §6.2.1: devices are not told their task number appears on NEXT;
	// microcode must acknowledge wakeups explicitly (FF IOAttenAck),
	// raising the minimum allocation grain from two cycles to three.
	ExplicitNotify bool
	// FixedWaitMemory reproduces the first §5.7 alternative to Hold:
	// every use of memory data waits the fixed worst-case (miss) time.
	FixedWaitMemory bool
}

// Config assembles a Machine.
type Config struct {
	Memory  memory.Config
	Options Options
	// FaultTask, when 1..15, is woken (via its READY flipflop) whenever the
	// memory system records a map fault — the Dorado's fault-handling
	// discipline: faults are service requests to a microcode task, not
	// processor traps. 0 means no fault task; New refuses any other value.
	FaultTask int
	// Reference selects the unoptimized reference interpreter: every cycle
	// re-decodes the packed microword from scratch and the scheduler scans
	// all 16 device slots, as the seed simulator did (stepReference, in
	// reference.go). The predecoded fast path (the default) and the
	// translator must be cycle-for-cycle identical to it; the
	// differential tests diff all three, and cmd/simbench uses it as the
	// host-performance baseline. Simulation semantics are unaffected.
	Reference bool
	// Translation enables the superblock translator (translate.go):
	// straight-line microcode runs execute as fused Go closures instead of
	// per-cycle dispatch. Like Reference it selects how cycles are computed,
	// not what they compute, and is excluded from snapshots. It requires the
	// as-built machine: New rejects Translation combined with Reference or
	// with any Options ablation.
	Translation Translation
}

// taskState groups the task-specific registers (§5.3).
type taskState struct {
	tpc   microcode.Addr // microcode program counter
	link  microcode.Addr // subroutine linkage (§6.2.3)
	t     uint16         // working storage
	ioadr uint16         // IOADDRESS: which device Input/Output talks to
	// branch-condition register (§5.3)
	zero, neg, carry, ovf bool
	savedCarry            bool // for CarrySaved multi-precision arithmetic
	mb                    bool // the MB flag (FF SetMB/ClearMB/ProbeMD)
	stackErr              bool
}

// pendingWrite models the Model-0 missing bypass: a register-file write
// that has left the ALU but not yet reached the RAM.
type pendingWrite struct {
	valid   bool
	toT     bool
	task    int // for T
	toRM    bool
	rmIndex uint8
	toStack bool
	stIndex uint8
	val     uint16
}

// Machine is one Dorado processor with its memory system, IFU, and devices.
type Machine struct {
	cfg Config

	im  *microstore // a shared image until the first write that differs (own)
	mem *memory.System
	ifu *ifu.Unit

	devs [NumTasks]device.Device // by task number, which is also the IOADDRESS
	att  []attachedDev           // attached devices in task order (hot loop)
	// The device event horizon (Device.IdleUntil): no controller is ticked
	// before cycle devQuiet, the earliest of their own horizons (devDue,
	// by task number), and the wakeup lines latched at each one's last
	// scan, devLines, stand for theirs in between. Derived state, never
	// serialized; endQuiet and touched end the quiet window. Every scan
	// writes devDue, so it lives here and not in the small att array: a
	// hot write to a small heap object shares its cache line with the
	// neighbouring objects, and machines running at once on other cores
	// would stall each other.
	devQuiet uint64
	devLines uint16
	devDue   [NumTasks]uint64

	// Control section (§6.2).
	tasks    [NumTasks]taskState
	ready    uint16 // READY flipflops: preempted or explicitly-readied tasks
	bestNext int    // BESTNEXTTASK pipeline register
	curTask  int    // THISTASK
	lastTask int    // LASTTASK
	curPC    microcode.Addr

	// Data section (§6.3).
	rm       [256]uint16
	stack    [256]uint16 // four 64-word stacks (§6.3.3)
	stackPtr uint8       // [stack:2][word:6]
	count    uint16
	q        uint16
	rbase    uint8 // 4 bits
	membase  uint8 // 5 bits
	shiftCtl uint16
	alufm    [16]microcode.ALUCtl
	cpreg    uint16

	pend pendingWrite // NoBypass delayed write

	seam  observers   // tracer, recorder, profiler: all nil on the fast path
	trans *translator // superblock translator, or nil (predecoded path)

	halted bool
	haltPC microcode.Addr
	cycle  uint64
	stalls uint64 // DelayedBranch dead cycles owed
	stats  Stats

	// The latest hold (§5.7): the counter it charged and the cycle before
	// which the held instruction provably holds again (0 when unknown, as
	// for IFU holds). retireHeld reads them.
	holdOn    *uint64
	holdUntil uint64
	// Diagnostics for tests (export_test.go), never serialized: device
	// scans, and cycles retired in bulk by retireHeld.
	scans, bulkHeld uint64
}

// Stats counts processor activity.
type Stats struct {
	Cycles       uint64
	Executed     uint64 // instructions completed (not held)
	Holds        uint64
	HoldMD       uint64 // held on memory data not ready
	HoldMem      uint64 // held on memory unable to accept a reference
	HoldIFU      uint64 // held on IFU dispatch/operand not ready
	TaskSwitches uint64
	Blocks       uint64
	Preemptions  uint64
	BranchStalls uint64 // DelayedBranch ablation dead cycles
	TaskCycles   [NumTasks]uint64
	TaskExecuted [NumTasks]uint64
}

// Utilization returns the fraction of cycles spent running task t.
func (s *Stats) Utilization(t int) float64 {
	if s.Cycles == 0 {
		return 0
	}
	return float64(s.TaskCycles[t]) / float64(s.Cycles)
}

// New builds a Machine.
func New(cfg Config) (*Machine, error) {
	if cfg.FaultTask < 0 || cfg.FaultTask >= NumTasks {
		return nil, fmt.Errorf("core: fault task %d is not a task (0 means none, 1-%d wake that task)", cfg.FaultTask, NumTasks-1)
	}
	mem, err := memory.New(cfg.Memory)
	if err != nil {
		return nil, err
	}
	if cfg.Translation.Enable {
		if cfg.Reference {
			return nil, fmt.Errorf("core: Translation requires the predecoded path, not Reference")
		}
		if cfg.Options != (Options{}) {
			return nil, fmt.Errorf("core: Translation supports only the as-built machine (Options must be zero)")
		}
	}
	m := &Machine{
		cfg:      cfg,
		mem:      mem,
		ifu:      ifu.New(mem),
		im:       haltStore,
		alufm:    microcode.DefaultALUFM(),
		devQuiet: ^uint64(0), // no controllers: quiet forever
	}
	if cfg.Translation.Enable {
		m.trans = &translator{}
	}
	if ft := cfg.FaultTask; ft > 0 {
		mem.OnFault(func(memory.Fault) { m.ready |= 1 << ft })
	}
	return m, nil
}

// Mem returns the memory system.
func (m *Machine) Mem() *memory.System { return m.mem }

// IFU returns the instruction fetch unit.
func (m *Machine) IFU() *ifu.Unit { return m.ifu }

// Load installs a microstore image (e.g. masm.Program.Words) and then
// flushes the superblock translator. An image that a shared Image holds
// (NewImage) is installed by pointing the machine at that Image's store;
// any other is written word by word into a store of the machine's own,
// decoding only the words that differ from those stored. An identical
// image changes nothing and keeps the blocks warm, which matters to
// callers that re-Load the same program per work item (BitBlt runs one
// Setup per blit).
func (m *Machine) Load(im *[microcode.StoreSize]microcode.Word) {
	if m.im.word == *im {
		return
	}
	for _, s := range sharedStores() {
		if s.word == *im {
			m.im = s
			m.trans.reset()
			return
		}
	}
	s := m.own()
	for a := range im {
		if s.word[a] != im[a] {
			s.set(microcode.Addr(a), im[a])
		}
	}
	m.trans.reset()
}

// Install points the machine's microstore and IFU decode table at img's,
// as Load of its words and a SetEntry of each of its rows into an empty
// table would install them, without copying either. The translator is
// flushed when the microstore changes.
func (m *Machine) Install(img *Image) {
	if m.im != img.store {
		m.im = img.store
		m.trans.reset()
	}
	m.ifu.SetTable(img.table)
}

// own returns the machine's microstore for a write, first copying a
// shared one into a store of the machine's own.
func (m *Machine) own() *microstore {
	if m.im.shared {
		s := new(microstore)
		*s = *m.im
		s.shared, s.sum = false, 0
		m.im = s
	}
	return m.im
}

// SetIM writes one microstore word, which executes at its next fetch on
// every path. Loaders and the console route single-word writes here (bulk
// images go through Load). Rewriting the same word changes nothing; a new
// word flushes the superblock translator, since any block may hold the old.
func (m *Machine) SetIM(a microcode.Addr, w microcode.Word) {
	if a &= microcode.AddrMask; m.im.word[a] != w {
		m.own().set(a, w)
		m.trans.reset()
	}
}

// IM reads one microstore word.
func (m *Machine) IM(a microcode.Addr) microcode.Word { return m.im.word[a&microcode.AddrMask] }

// attachedDev pairs a device with its precomputed wakeup-line bit so the
// scheduler's hot loop touches only live controllers.
type attachedDev struct {
	dev  device.Device
	task int
	bit  uint16
}

// Attach registers a device on its task number; its IOADDRESS is the task
// number as well (the convention all bundled microcode uses).
func (m *Machine) Attach(d device.Device) error {
	t := d.Task()
	if t <= 0 || t >= NumTasks {
		return fmt.Errorf("core: device task %d out of range 1..15", t)
	}
	if m.devs[t] != nil {
		return fmt.Errorf("core: task %d already has a device", t)
	}
	m.devs[t] = d
	// Rebuild the compact device list in task order, so Tick and wakeup
	// sampling visit controllers exactly as the 16-slot scan did.
	m.att = m.att[:0]
	for task := 1; task < NumTasks; task++ {
		if dev := m.devs[task]; dev != nil {
			m.att = append(m.att, attachedDev{dev: dev, task: task, bit: 1 << task})
		}
	}
	m.endQuiet()
	return nil
}

// scanDevices ticks, at now, every attached controller whose own horizon
// has come, in task order, then latches their wakeup lines and asks each
// for its next horizon (Device.IdleUntil); the others are promised quiet,
// so their Tick would change nothing and their lines stand. A controller
// is due again next cycle at the earliest, so one that promises nothing
// is scanned every cycle. devQuiet becomes the earliest horizon of all.
func (m *Machine) scanDevices(now uint64) {
	for i := range m.att {
		if a := &m.att[i]; now >= m.devDue[a.task] {
			a.dev.Tick(now)
		}
	}
	q := ^uint64(0)
	for i := range m.att {
		a := &m.att[i]
		due := &m.devDue[a.task]
		if now >= *due {
			if a.dev.Wakeup() {
				m.devLines |= a.bit
			} else {
				m.devLines &^= a.bit
			}
			*due = max(a.dev.IdleUntil(now), now+1)
		}
		q = min(q, *due)
	}
	m.devQuiet = q
	m.scans++
}

// endQuiet ends every controller's quiet window, so the next cycle scans
// them all. Anything that may break an IdleUntil promise calls it: Attach,
// Restore, and every Run or Step entry (the host may have touched a
// device). A machine without controllers stays quiet forever.
func (m *Machine) endQuiet() {
	m.devDue = [NumTasks]uint64{}
	if len(m.att) != 0 {
		m.devQuiet = 0
	}
}

// touched ends the quiet window of the device at IOADDRESS a alone (its
// task number), which the processor has just read, written or notified
// (FF Input, Output, DevCtl, IOAttenAck): the next cycle scans it.
func (m *Machine) touched(a uint16) {
	m.devDue[a] = 0
	m.devQuiet = 0
}

// Start boots (or re-boots) the machine: task 0 begins executing at a on
// the next Step, and a previous Halt is cleared.
func (m *Machine) Start(a microcode.Addr) {
	m.SetTPC(0, a)
	m.curTask = 0
	m.curPC = a
	m.halted = false
}

// SetTPC sets a task's microcode program counter. Call before running, and
// for every task that has a device (a wakeup to a task with a zero TPC runs
// whatever is at microstore address 0).
func (m *Machine) SetTPC(task int, a microcode.Addr) { m.tasks[task&15].tpc = a }

// TPC reads a task's program counter.
func (m *Machine) TPC(task int) microcode.Addr { return m.tasks[task&15].tpc }

// Halted reports whether the machine has executed FF Halt.
func (m *Machine) Halted() bool { return m.halted }

// HaltPC returns the address of the halting instruction.
func (m *Machine) HaltPC() microcode.Addr { return m.haltPC }

// Cycle returns the current cycle number.
func (m *Machine) Cycle() uint64 { return m.cycle }

// Stats returns a snapshot of the counters.
func (m *Machine) Stats() Stats {
	s := m.stats
	s.Cycles = m.cycle
	return s
}

// Register accessors for tests, loaders, and the console.

// RM reads general register i (absolute index, not RBASE-relative).
func (m *Machine) RM(i int) uint16 { return m.rm[i&0xFF] }

// SetRM writes general register i.
func (m *Machine) SetRM(i int, v uint16) { m.rm[i&0xFF] = v }

// T reads a task's T register.
func (m *Machine) T(task int) uint16 { return m.tasks[task&15].t }

// SetT writes a task's T register.
func (m *Machine) SetT(task int, v uint16) { m.tasks[task&15].t = v }

// Count reads COUNT.
func (m *Machine) Count() uint16 { return m.count }

// SetCount writes COUNT.
func (m *Machine) SetCount(v uint16) { m.count = v }

// Q reads the multiply/divide aid register.
func (m *Machine) Q() uint16 { return m.q }

// SetQ writes Q.
func (m *Machine) SetQ(v uint16) { m.q = v }

// StackPtr reads STACKPTR ([stack:2][word:6]).
func (m *Machine) StackPtr() uint8 { return m.stackPtr }

// SetStackPtr writes STACKPTR.
func (m *Machine) SetStackPtr(v uint8) { m.stackPtr = v }

// Stack reads stack word i (absolute index into the 256-word stack memory).
func (m *Machine) Stack(i int) uint16 { return m.stack[i&0xFF] }

// SetStack writes stack word i.
func (m *Machine) SetStack(i int, v uint16) { m.stack[i&0xFF] = v }

// RBase reads the RM bank register.
func (m *Machine) RBase() uint8 { return m.rbase }

// SetRBase writes the RM bank register.
func (m *Machine) SetRBase(v uint8) { m.rbase = v & 0xF }

// MemBase reads the 5-bit base-register selector.
func (m *Machine) MemBase() uint8 { return m.membase }

// SetMemBase writes the base-register selector.
func (m *Machine) SetMemBase(v uint8) { m.membase = v & 0x1F }

// SetIOAddress sets a task's IOADDRESS register.
func (m *Machine) SetIOAddress(task int, v uint16) { m.tasks[task&15].ioadr = v }

// ShiftCtl reads the SHIFTCTL register.
func (m *Machine) ShiftCtl() uint16 { return m.shiftCtl }

// SetShiftCtl writes the SHIFTCTL register.
func (m *Machine) SetShiftCtl(v uint16) { m.shiftCtl = v }

// CPReg reads the console-processor register (§6.2.3).
func (m *Machine) CPReg() uint16 { return m.cpreg }

// SetCPReg writes the console-processor register.
func (m *Machine) SetCPReg(v uint16) { m.cpreg = v }

// CurTask returns the task executing in the current cycle.
func (m *Machine) CurTask() int { return m.curTask }

// CurPC returns the address of the instruction executing this cycle.
func (m *Machine) CurPC() microcode.Addr { return m.curPC }

// TraceEvent describes one executed (or held) cycle for a Tracer.
type TraceEvent struct {
	Cycle uint64
	Task  int
	PC    microcode.Addr
	Held  bool
	Word  microcode.Word
}

// Tracer receives one event per cycle when installed (debugging aid;
// stands in for the Dorado's console-processor monitoring, §6.2). Trace
// runs once the cycle has retired, scheduler included, so the event — not
// the machine's current task or PC — describes the traced cycle.
type Tracer interface {
	Trace(ev TraceEvent)
}

// SetTracer installs (or, with nil, removes) a cycle tracer. It sees every
// cycle on every execution path, fused superblock cycles included.
func (m *Machine) SetTracer(t Tracer) {
	m.seam.tracer = t
	m.seam.refresh()
}

// SetRecorder attaches (or, with nil, detaches) a metrics recorder: every
// path then feeds it the cycles with wakeup edges, hold episodes,
// scheduling spans, and utilization samples. Detached (the default), the
// observation seam costs one predicted branch per cycle; the bench guard
// (simbench -guard, bench.Guard) enforces both budgets.
func (m *Machine) SetRecorder(r *obs.Recorder) {
	m.seam.rec = r
	m.seam.refresh()
}
