package core

import (
	"math/bits"

	"dorado/internal/microcode"
	"dorado/internal/obs"
)

// Step advances the machine one 60 ns cycle, reproducing the task pipeline
// of §6.2.1:
//
//	cycle c:   device wakeup lines latch into WAKEUP at t0
//	           (arbitration during c produces BESTNEXTTASK)
//	cycle c+1: NEXT = max(BESTNEXTTASK, THISTASK), or BESTNEXTTASK on Block;
//	           devices see their number on NEXT and may drop the wakeup;
//	           the winner's microinstruction is fetched via its TPC
//	cycle c+2: the instruction executes
//
// which yields the paper's two-cycle wakeup-to-run latency and two-cycle
// minimum allocation grain: a wakeup dropped when NEXT shows the task
// number is latched too late to stop the *next* arbitration, so the task
// always runs at least two instructions.
func (m *Machine) Step() {
	if m.halted {
		return
	}
	m.endQuiet()
	if m.cfg.Reference {
		m.stepReference()
	} else {
		m.step(m.cycle + 1)
	}
}

// Run executes until Halt or maxCycles, returning true if halted. This is
// the batched hot loop: the halted check lives in the loop condition and
// the execution path is chosen once, outside it. Attached observers ride
// along on every path, superblocks included.
func (m *Machine) Run(maxCycles uint64) bool {
	limit := m.cycle + maxCycles
	m.endQuiet() // the host may have touched a device since the last call
	switch {
	case m.trans != nil:
		m.runTranslated(limit)
	case m.cfg.Reference:
		for !m.halted && m.cycle < limit {
			m.stepReference()
		}
	default:
		for !m.halted && m.cycle < limit {
			m.step(limit)
		}
	}
	return m.halted
}

// RunCycles advances the machine n cycles (or until Halt) and returns the
// number of cycles actually simulated — the building block cmd/simbench
// times for host-throughput measurement.
func (m *Machine) RunCycles(n uint64) uint64 {
	start := m.cycle
	m.Run(n)
	return m.cycle - start
}

// step is one cycle of the pipeline on the predecoded path. A held cycle
// that provably repeats also retires its repeats, up to limit (retireHeld).
func (m *Machine) step(limit uint64) {
	now := m.cycle

	// Device and IFU hardware advance first: lines raised during this
	// cycle are visible to this cycle's WAKEUP latch. Controllers are
	// ticked only at their event horizon (scanDevices); before it, the
	// lines latched at the last scan stand.
	//
	// WAKEUP latch (t0): device lines, READY flipflops, and task 0, which
	// "requests service from the processor at all times" (§5.1). Latched
	// *before* NotifyNext below, so a wakeup dropped because of this
	// cycle's NEXT first disappears from the next latch — the 2-cycle grain.
	if now >= m.devQuiet {
		m.scanDevices(now)
	}
	m.ifu.Tick(now)
	lines := uint16(1) | m.ready | m.devLines

	// Execute this cycle's instruction (or burn a DelayedBranch dead cycle).
	execTask := m.curTask
	execPC := m.curPC
	var held, blocked, didExec bool
	var nextPC = m.curPC
	if m.stalls > 0 {
		m.stalls--
		m.stats.BranchStalls++
		m.stats.TaskCycles[m.curTask]++
	} else {
		held, blocked, nextPC = m.exec(&m.im.dec[m.curPC], now)
		didExec = true
	}

	// NEXT computation: the running task keeps the processor until it
	// blocks, unless a higher-priority task preempts (§6.2.1: "NEXT
	// normally gets the larger of BESTNEXTTASK and THISTASK").
	next := m.bestNext
	if !blocked && m.curTask > next {
		next = m.curTask
	}

	if next != m.curTask {
		// The departing task's state is captured entirely by its TPC; that
		// is the zero-overhead context switch of §5.3.
		m.tasks[m.curTask].tpc = nextPC
		if blocked {
			m.ready &^= 1 << m.curTask
			m.stats.Blocks++
		} else {
			// Preempted: remember to resume it (§6.2.1 READY flipflops).
			m.ready |= 1 << m.curTask
			m.stats.Preemptions++
		}
		m.stats.TaskSwitches++
		m.lastTask = m.curTask
		m.curTask = next
		m.curPC = m.tasks[next].tpc
	} else {
		if blocked {
			// Block with no other requester (or wakeup still latched):
			// the task continues — the §6.2.1 "otherwise it will continue
			// to run" case.
			m.stats.Blocks++
			m.ready &^= 1 << m.curTask
		}
		m.curPC = nextPC
	}
	// Service granted: clear the READY flipflop and let the device see its
	// number on the NEXT bus (§6.2.1) — unless the machine is built with
	// explicit notification (the grain-3 ablation). Inside the quiet window
	// NotifyNext is a promised no-op, so only the cycle before a scan
	// calls it.
	m.ready &^= 1 << next
	if !m.cfg.Options.ExplicitNotify && m.devs[next] != nil && now+1 >= m.devQuiet {
		m.devs[next].NotifyNext(now)
	}

	// Arbitration: priority-encode this cycle's latch into BESTNEXTTASK
	// for use in the next cycle's NEXT computation.
	m.bestNext = 15 - bits.LeadingZeros16(lines)

	// The observation seam: one predicted-not-taken branch when detached.
	if m.seam.wants(now, execTask, held, lines) {
		m.observe(now, execTask, execPC, held, didExec && !held, lines)
	}
	m.cycle++
	if held && m.holdUntil > m.cycle {
		m.retireHeld(execTask, execPC, lines, limit)
	}
}

// retireHeld retires, in one step, the cycles that would repeat the held
// cycle just completed (§5.7: a held instruction is "no-op, jump to self"
// while the clocks run), and returns how many it retired. The repeat is
// provable when the same task is re-selected with no stall owed, the next
// WAKEUP latch equals this one and BESTNEXTTASK stays at or below the
// task, so nothing but time distinguishes the following cycles. The run
// ends at the earliest of: the hold's release (holdUntil), the device
// event horizon, the IFU's idle horizon, the run limit, and the
// recorder's next event. Each retired cycle is charged exactly as exec
// charges a hold; a tracer, which must see every cycle, turns the shortcut
// off, and the profiler takes the run as one held charge at pc.
func (m *Machine) retireHeld(task int, pc microcode.Addr, lines uint16, limit uint64) uint64 {
	from := m.cycle // the first repeat
	if m.curTask != task || m.bestNext > task || m.stalls != 0 || uint16(1)|m.ready|m.devLines != lines {
		return 0
	}
	end := min(m.holdUntil, m.devQuiet, limit, m.ifu.IdleUntil(from-1))
	if o := &m.seam; o.watching {
		if o.tracer != nil {
			return 0
		}
		if o.rec != nil {
			end = min(end, o.rec.QuietUntil(task, true, lines))
		}
	}
	if end <= from {
		return 0
	}
	n := end - from
	m.stats.TaskCycles[task] += n
	m.stats.Holds += n
	*m.holdOn += n
	if p := m.seam.prof; p != nil {
		p.heldRun(pc, n)
	}
	m.cycle = end
	m.bulkHeld += n
	return n
}

// observers is the machine's one observation seam: the cycle tracer (the
// console processor's monitor, §6.2), the metrics recorder, and the
// profiler. Every execution path reports each retired cycle through one
// wants gate, and superblock builds and exits through blockBuilt and
// blockExit. It is a concrete struct rather than an interface so the gate
// inlines: detached, a cycle pays one predicted branch on watching.
type observers struct {
	tracer   Tracer
	rec      *obs.Recorder
	prof     *Profiler
	watching bool // any of the three is attached
}

// wants is the per-cycle gate. Tracer and profiler see every cycle; a
// recorder alone is asked through its inlined NeedsCycle guard, so its
// event-free cycles stay a few compares and no call.
func (o *observers) wants(now uint64, task int, held bool, lines uint16) bool {
	return o.watching && (o.tracer != nil || o.prof != nil || o.rec.NeedsCycle(now, task, held, lines))
}

// observe reports one retired cycle to every attached observer: the task
// and microaddress that occupied the processor, whether the instruction
// held (§5.7) or completed (a DelayedBranch stall cycle does neither), and
// the cycle's WAKEUP latch.
func (m *Machine) observe(now uint64, task int, pc microcode.Addr, held, exec bool, lines uint16) {
	o := &m.seam
	if o.tracer != nil {
		o.tracer.Trace(TraceEvent{Cycle: now, Task: task, PC: pc, Held: held, Word: m.im.word[pc]})
	}
	if o.rec != nil {
		o.rec.Cycle(now, task, held, lines, &m.stats.TaskCycles)
	}
	if o.prof != nil {
		o.prof.cycle(pc, held, exec)
	}
}

// guardFails reports n more rejected entries of the block at start, each
// one a cycle the generic step retired in bulk (runTranslated).
func (o *observers) guardFails(start microcode.Addr, n uint64) {
	if o.prof != nil && n > 0 {
		o.prof.guardFails(start, n)
	}
}

// blockBuilt reports a superblock build (start address, fused length).
func (o *observers) blockBuilt(start microcode.Addr, instructions int) {
	if o.prof != nil {
		o.prof.blockCompiled(start, instructions)
	}
}

// blockExit reports how one superblock execution (or rejected entry) ended;
// see Profiler.blockExit.
func (o *observers) blockExit(start microcode.Addr, reason ExitReason, exitPC microcode.Addr, cycles, end uint64) {
	if o.prof != nil {
		o.prof.blockExit(start, reason, exitPC, cycles, end)
	}
}

// refresh recomputes the gate's flag after a Set* call.
func (o *observers) refresh() {
	o.watching = o.tracer != nil || o.rec != nil || o.prof != nil
}
