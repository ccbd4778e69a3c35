package core

import (
	"sort"

	"dorado/internal/microcode"
)

// This file is the core half of the microarchitectural profiler: exact
// per-microaddress cycle attribution plus superblock lifecycle accounting.
// The Profiler is attached with SetProfiler (dorado.WithProfiler at the
// facade) and reports through the same observation seam as the tracer and
// the obs.Recorder: detached — the default — it costs nothing beyond the
// seam's one branch per cycle and allocates nothing; attached,
// every cycle is charged to the microaddress that occupied the processor,
// and every superblock execution reports how it ended (ExitReason). The
// model/merge/export half lives in internal/obs/prof, which reads the
// Snapshot this file produces.

// ExitReason classifies how one superblock execution (or attempt) ended.
// The first three are the graceful ends; the rest are the aborts the
// ROADMAP's "trace through IFUJUMP" item needs attributed: which event
// closes blocks on each workload, and therefore which fallback to attack
// next.
type ExitReason uint8

const (
	// ExitFallThrough: the block ran off its last fused instruction onto a
	// static successor (a run cut short by the 48-word block limit,
	// maxBlock, or an interior revisit).
	ExitFallThrough ExitReason = iota
	// ExitBranch: a BRANCH/RETURN/DISP8/DISP256 terminator retired and set
	// curPC dynamically — the normal side exit.
	ExitBranch
	// ExitIFUJump: the block ended at an IFUJUMP terminator. Emulator
	// workloads end essentially every block here (the ~1x translated result).
	ExitIFUJump
	// ExitTaskSwitch: pending higher-priority work (READY flipflops) broke
	// the block loop before the terminator.
	ExitTaskSwitch
	// ExitDeviceWakeup: a device wakeup raised BESTNEXTTASK above the
	// running task mid-block — the fast-I/O wakeup churn.
	ExitDeviceWakeup
	// ExitHold: the block was broken out of while its current instruction
	// was held (§5.7); the generic loop retires the hold.
	ExitHold
	// ExitLimit: the Run cycle budget expired mid-block.
	ExitLimit
	// ExitHalt: an FF Halt retired inside the block.
	ExitHalt
	// ExitGuardFail: the entry guard rejected a compiled block (pending
	// task switch, non-task-0 entry, or owed stall cycles); no fused cycles
	// ran. Counted once per rejected entry attempt.
	ExitGuardFail
	// NumExitReasons sizes per-reason counter arrays.
	NumExitReasons
)

// String returns the reason's stable wire name (used in JSON profiles and
// Prometheus labels).
func (r ExitReason) String() string {
	if int(r) < len(exitNames) {
		return exitNames[r]
	}
	return "unknown"
}

var exitNames = [...]string{
	"fallthrough", "branch", "ifujump", "task_switch",
	"device_wakeup", "hold", "limit", "halt", "guard_fail",
}

// Abort reports whether the reason ended a block before its terminator
// (guard-fail included): the translator coverage lost to the fallback
// contract, as opposed to a block simply finishing.
func (r ExitReason) Abort() bool {
	switch r {
	case ExitTaskSwitch, ExitDeviceWakeup, ExitHold, ExitGuardFail:
		return true
	}
	return false
}

// blockProf accumulates one superblock's lifecycle counters, keyed by the
// block's start address.
type blockProf struct {
	instructions int // fused instructions at compile time
	compiled     uint64
	entries      uint64
	cycles       uint64
	exits        [NumExitReasons]uint64
	exitPCs      map[microcode.Addr]uint64 // where control went on exit
}

// BlockSpan is one superblock execution laid out in time: the cycle it
// entered, the fused cycles it retired, and how it ended. Spans feed the
// Chrome-trace annotation; the ring keeps the most recent profSpanCap so a
// long run stays bounded.
type BlockSpan struct {
	Start  uint64 // machine cycle the block was entered at
	Cycles uint64 // fused cycles retired
	Block  microcode.Addr
	Reason ExitReason
}

// profSpanCap bounds the span ring (~256 KiB); older spans are dropped and
// counted, mirroring the recorder's SpansDropped contract.
const profSpanCap = 8192

// Profiler is the attribution state SetProfiler hangs on a machine: exact
// per-microaddress cycle/execute/hold counters (fixed arrays — charging a
// cycle is two or three increments, no hashing, no allocation) and a
// per-superblock lifecycle table (allocating, but touched only at block
// granularity, never per cycle). A Profiler belongs to one machine; it is
// not safe for concurrent use with the simulation and, like the recorder
// and the translator caches, is never serialized into snapshots.
type Profiler struct {
	cycles   [microcode.StoreSize]uint64
	executed [microcode.StoreSize]uint64
	holds    [microcode.StoreSize]uint64
	blocks   map[microcode.Addr]*blockProf
	exits    [NumExitReasons]uint64 // fleet of per-block exits, summed

	spans        []BlockSpan // ring of recent block executions
	spanHead     int         // next write position once the ring is full
	spansDropped uint64
}

// NewProfiler returns an empty profiler (three 32 KiB counter planes plus
// an empty block table).
func NewProfiler() *Profiler {
	return &Profiler{blocks: map[microcode.Addr]*blockProf{}}
}

// cycle charges one cycle to addr. held marks a §5.7 held cycle, exec a
// completed instruction; a DelayedBranch stall cycle is neither.
func (p *Profiler) cycle(addr microcode.Addr, held, exec bool) {
	p.cycles[addr]++
	if held {
		p.holds[addr]++
	} else if exec {
		p.executed[addr]++
	}
}

// heldRun charges n held cycles to addr at once: a run of identical held
// cycles the machine retired in one step (Machine.retireHeld).
func (p *Profiler) heldRun(addr microcode.Addr, n uint64) {
	p.cycles[addr] += n
	p.holds[addr] += n
}

// block returns (creating on demand) the lifecycle record for the
// superblock starting at addr.
func (p *Profiler) block(addr microcode.Addr) *blockProf {
	b := p.blocks[addr]
	if b == nil {
		b = &blockProf{exitPCs: map[microcode.Addr]uint64{}}
		p.blocks[addr] = b
	}
	return b
}

// blockCompiled records a superblock build (start address, fused length).
func (p *Profiler) blockCompiled(addr microcode.Addr, instructions int) {
	b := p.block(addr)
	b.compiled++
	b.instructions = instructions
}

// blockExit records the end of one block execution (or, for ExitGuardFail,
// one rejected entry attempt): the reason, the PC control continued at, the
// fused cycles the execution retired, and the machine cycle it ended at
// (for the span ring; guard fails retire nothing and leave no span).
func (p *Profiler) blockExit(start microcode.Addr, reason ExitReason, exitPC microcode.Addr, cycles, endCycle uint64) {
	b := p.block(start)
	if reason != ExitGuardFail {
		b.entries++
	}
	b.cycles += cycles
	b.exits[reason]++
	b.exitPCs[exitPC]++
	p.exits[reason]++
	if reason == ExitGuardFail {
		return
	}
	sp := BlockSpan{Start: endCycle - cycles, Cycles: cycles, Block: start, Reason: reason}
	if len(p.spans) < profSpanCap {
		p.spans = append(p.spans, sp)
	} else {
		p.spans[p.spanHead] = sp
		p.spanHead = (p.spanHead + 1) % profSpanCap
		p.spansDropped++
	}
}

// guardFails records n rejected entries of the block at start at once,
// as n blockExit calls with ExitGuardFail would.
func (p *Profiler) guardFails(start microcode.Addr, n uint64) {
	b := p.block(start)
	b.exits[ExitGuardFail] += n
	b.exitPCs[start] += n
	p.exits[ExitGuardFail] += n
}

// AddrCount is one microaddress's attribution counters in a Snapshot.
type AddrCount struct {
	Addr     microcode.Addr
	Cycles   uint64 // cycles the address occupied the processor (held included)
	Executed uint64 // instructions completed at the address
	Holds    uint64 // held cycles at the address
}

// PCCount is one (address, count) pair of a block's exit-PC histogram.
type PCCount struct {
	PC    microcode.Addr
	Count uint64
}

// BlockSnapshot is one superblock's lifecycle record in a Snapshot.
type BlockSnapshot struct {
	Start        microcode.Addr
	Instructions int
	Compiled     uint64 // builds (recompiles after invalidation included)
	Entries      uint64
	Cycles       uint64 // fused cycles retired inside the block
	Exits        [NumExitReasons]uint64
	ExitPCs      []PCCount // sorted by PC
}

// Snapshot is the profiler's complete state at one instant, in
// deterministic order (addresses ascending): the input internal/obs/prof
// builds its Profile model from.
type Snapshot struct {
	Addrs  []AddrCount // non-zero addresses only
	Blocks []BlockSnapshot
	Exits  [NumExitReasons]uint64 // per-reason block exits, all blocks
	Spans  []BlockSpan            // recent block executions, oldest first
	// SpansDropped counts block executions that fell off the span ring.
	SpansDropped uint64
}

// Snapshot copies the profiler's counters out. Call while the machine is
// paused (profiles are read between run slices, like snapshots and traces).
func (p *Profiler) Snapshot() Snapshot {
	var s Snapshot
	for a := 0; a < microcode.StoreSize; a++ {
		if p.cycles[a] == 0 && p.executed[a] == 0 && p.holds[a] == 0 {
			continue
		}
		s.Addrs = append(s.Addrs, AddrCount{
			Addr:     microcode.Addr(a),
			Cycles:   p.cycles[a],
			Executed: p.executed[a],
			Holds:    p.holds[a],
		})
	}
	starts := make([]microcode.Addr, 0, len(p.blocks))
	for a := range p.blocks {
		starts = append(starts, a)
	}
	sort.Slice(starts, func(i, j int) bool { return starts[i] < starts[j] })
	for _, a := range starts {
		b := p.blocks[a]
		bs := BlockSnapshot{
			Start:        a,
			Instructions: b.instructions,
			Compiled:     b.compiled,
			Entries:      b.entries,
			Cycles:       b.cycles,
			Exits:        b.exits,
		}
		pcs := make([]microcode.Addr, 0, len(b.exitPCs))
		for pc := range b.exitPCs {
			pcs = append(pcs, pc)
		}
		sort.Slice(pcs, func(i, j int) bool { return pcs[i] < pcs[j] })
		for _, pc := range pcs {
			bs.ExitPCs = append(bs.ExitPCs, PCCount{PC: pc, Count: b.exitPCs[pc]})
		}
		s.Blocks = append(s.Blocks, bs)
	}
	s.Exits = p.exits
	// Unroll the ring oldest-first: once full, spanHead is the oldest slot.
	if len(p.spans) > 0 {
		s.Spans = make([]BlockSpan, 0, len(p.spans))
		s.Spans = append(s.Spans, p.spans[p.spanHead:]...)
		s.Spans = append(s.Spans, p.spans[:p.spanHead]...)
	}
	s.SpansDropped = p.spansDropped
	return s
}

// ExitCounts returns the machine-wide per-reason block exit counters — the
// cheap read fleet metric caches refresh from after every operation
// (Snapshot walks the full counter planes; this copies nine words).
func (p *Profiler) ExitCounts() [NumExitReasons]uint64 { return p.exits }

// SetProfiler attaches (or, with nil, detaches) a microarchitectural
// profiler: every cycle is then charged to the microaddress occupying the
// processor — on the generic loop and inside superblocks alike — and every
// superblock execution records how it ended. Detached (the default) it
// shares the observation seam's one predicted branch per cycle.
func (m *Machine) SetProfiler(p *Profiler) {
	m.seam.prof = p
	m.seam.refresh()
}
