package core

import (
	"math/bits"

	"dorado/internal/memory"
	"dorado/internal/microcode"
)

// This file is the superblock translator: the third execution path
// (reference → predecoded → translated). The first time the cycle loop
// reaches a microaddress, the translator walks the predecoded successor
// chain from it and fuses the straight-line run into a superblock — a
// single Go closure that executes the whole run without per-cycle
// NextControl dispatch. Successor addresses, subroutine-linkage values, and
// per-instruction specializations are resolved once, at translation time;
// the block loops then execute fused cycles with the scheduler work either
// hoisted to block entry (runBlockFast, the quiescent task-0 case) or
// reduced to the exact per-cycle minimum step performs (runBlock, the
// device-machine case).
//
// The fallback contract (DESIGN.md §12): any event the fused path cannot
// retire exactly — a Hold, a pending higher-priority task, a device wakeup
// that could preempt, an IFUJUMP or other dynamic NextControl past the
// block's terminator, FF Halt, or an exhausted cycle budget — returns
// control to the existing cycle loop, which re-executes from the current
// (task, PC) with unmodified semantics. Translation is therefore an
// optimization of *how* a cycle is computed, never of *which* cycles
// happen: a translated machine is cycle-for-cycle, snapshot-for-snapshot
// identical to the predecoded and reference interpreters, which the
// differential tests and internal/fuzzdiff enforce.

// Translation configures the superblock translator. The zero value
// disables it. The translator requires the as-built machine (no Options
// ablations, not Reference) — core.New rejects other combinations.
type Translation struct {
	// Enable turns the translated execution path on.
	Enable bool
}

// maxBlock bounds the number of microinstructions fused into one
// superblock. Unrolling fills a block to it, so a one-word spin loop (the
// §7 I/O benchmarks' task-0 background) runs 48 cycles per block entry.
const maxBlock = 48

// TranslationStats counts translator activity. The counters are
// diagnostics, not machine state: they are not serialized into snapshots
// and accumulate across invalidations.
type TranslationStats struct {
	// BlocksBuilt is the number of superblocks ever constructed.
	BlocksBuilt uint64 `json:"blocks_built"`
	// Instructions is the total number of microinstructions fused into
	// those blocks.
	Instructions uint64 `json:"instructions"`
	// Entries counts block executions (entries into a fused closure).
	Entries uint64 `json:"entries"`
	// FusedCycles counts machine cycles retired inside superblocks — the
	// coverage the translator actually achieves (compare Machine.Cycle).
	FusedCycles uint64 `json:"fused_cycles"`
	// Invalidations counts whole-cache flushes (microstore writes, Load,
	// Restore).
	Invalidations uint64 `json:"invalidations"`
}

// instExit is a fused instruction's report to the block loop.
type instExit uint8

const (
	// instOK: the instruction executed and curPC advanced to its static
	// successor; the block continues.
	instOK instExit = iota
	// instEnd: the block's terminator executed (its successor may be
	// dynamic — branch, return, dispatch, IFU jump); curPC is set and the
	// block is done.
	instEnd
	// instHeld: the instruction held (§5.7) — no state changed beyond the
	// hold counters and curPC is unchanged; the generic loop retries it.
	instHeld
	// instLoop: a fused BRANCH terminator resolved to the block's own start
	// (curPC is set to it); the block loop restarts at its first
	// instruction without leaving the fused path.
	instLoop
)

// instFn executes one fused microinstruction. The machine's curPC equals
// the instruction's address on entry; on instOK/instEnd the fn has advanced
// it. Fused instructions never Block-release the processor: words with the
// Block bit force the containing block task0Only (where Block is the stack
// modifier, §6.3.1), so the release path stays exclusive to step.
type instFn func(m *Machine, now uint64) instExit

// superblock is one fused straight-line run of decoded microwords.
type superblock struct {
	start microcode.Addr
	code  []instFn
	// addrs maps each code slot to its microstore address, so an attached
	// Profiler can charge fused cycles to exact microaddresses.
	addrs []microcode.Addr
	// termReason is the ExitReason an instEnd from the terminator reports:
	// ExitIFUJump for an IFUJUMP terminator, ExitBranch for the other
	// dynamic kinds, ExitFallThrough when the block has no terminator.
	termReason ExitReason
	// task0Only marks blocks containing stack-modifier (Block-bit) words:
	// under task 0 the bit selects a stack operation, under any other task
	// it releases the processor, so such blocks only run as task 0.
	task0Only bool
}

// translator is the per-machine translation state: the block cache,
// derived from the microstore and rebuilt on demand — never serialized
// (the snapshot stays path-agnostic).
type translator struct {
	// blocks caches one superblock per start address: nil until the
	// address is first reached, declined where its run is too short.
	blocks [microcode.StoreSize]*superblock
	// resume is the block a run's cycle budget cut short, and resumeAt
	// the index of the word it stopped before: the next run continues
	// the block there instead of building one inside it.
	resume   *superblock
	resumeAt int
	stats    TranslationStats
}

// declined marks the addresses whose straight-line run is too short to
// fuse, so the cycle loop does not try them again.
var declined = &superblock{}

// reset flushes the block cache. Called when a microstore write (SetIM,
// Load) changes a word and on every Restore, so a snapshot taken
// mid-block always rehydrates onto the cycle loop deterministically.
func (t *translator) reset() {
	if t == nil {
		return
	}
	t.blocks = [microcode.StoreSize]*superblock{}
	t.resume = nil
	t.stats.Invalidations++
}

// TranslationStats returns the translator's activity counters (zero when
// translation is disabled).
func (m *Machine) TranslationStats() TranslationStats {
	if m.trans == nil {
		return TranslationStats{}
	}
	return m.trans.stats
}

// runTranslated is Run's hot loop when translation is enabled. The first
// visit to an address builds its superblock; an address with a block runs
// through it, and the rest execute on the generic step. A run that starts
// where the last one's budget cut a block short continues that block, so
// runs of any length build the same blocks. Attached observers see every
// cycle either way: the block loops report fused cycles through the same
// seam as step.
//
// A held cycle that provably repeats is retired with its repeats by the
// generic step (retireHeld). Each repeat would have come back through this
// loop at the same address and state, so a rejected block entry is
// charged once per retired cycle.
func (m *Machine) runTranslated(limit uint64) {
	t := m.trans
	for !m.halted && m.cycle < limit {
		pc := m.curPC
		now := m.cycle
		b, at := t.blocks[pc], 0
		if r := t.resume; r != nil {
			t.resume = nil
			if r.addrs[t.resumeAt] == pc {
				b, at = r, t.resumeAt
			}
		}
		if b == nil {
			b = m.translate(pc)
			t.blocks[pc] = b
		}
		rejected := false
		if b != declined {
			// Entry guard: a pending task switch (BESTNEXTTASK above the
			// running task) must happen on the generic loop, a task0Only
			// block only runs as task 0, and owed stall cycles burn
			// generically.
			if m.bestNext <= m.curTask && (!b.task0Only || m.curTask == 0) && m.stalls == 0 {
				t.stats.Entries++
				if len(m.att) == 0 && m.ready == 0 && m.curTask == 0 && m.bestNext == 0 {
					m.runBlockFast(b, at, limit)
				} else {
					m.runBlock(b, at, limit)
				}
				continue
			}
			// Entry guard rejected a compiled block: the cycle runs on the
			// generic loop. Each rejected attempt is one guard-fail event —
			// sustained rejection (a long higher-priority burst) shows up as
			// a proportionally large count, which is the point.
			m.seam.blockExit(b.start, ExitGuardFail, pc, 0, now)
			rejected = true
		}
		m.step(limit)
		if n := m.cycle - now - 1; rejected && n > 0 {
			m.seam.guardFails(b.start, n)
		}
	}
}

// runBlockFast executes b's fused cycles from code slot i (0, or where a
// budget cut the block short) on a quiescent single-task machine:
// no devices attached, READY empty, task 0 running, and no better task
// pending (the caller checked all four). Under those preconditions step's
// wakeup latch is the constant line for task 0 (so an attached recorder
// is given that constant), arbitration always re-selects task 0, and the
// NEXT-bus notify has no listener — so the whole scheduler epilogue is
// hoisted out and each cycle is: budget/quiescence check, IFU tick, fused
// instruction, observation seam, cycle count. A held cycle that provably
// repeats retires its repeats in one step (retireHeld).
// The READY check re-establishes the preconditions every cycle: an FF
// ReadyB or a memory-fault wakeup lands in READY mid-cycle and is seen at
// the top of the next one, exactly when step's wakeup latch would first
// see it (the arbitration it feeds happens one cycle later still, and
// m.bestNext is left at 0 — the value step would have computed from the
// preceding cycle's empty latch).
func (m *Machine) runBlockFast(b *superblock, i int, limit uint64) {
	n := uint64(0)
	code := b.code
	reason := ExitFallThrough
	lastHeld := false
	for i < len(code) {
		if m.cycle >= limit {
			reason = ExitLimit
			m.trans.resume, m.trans.resumeAt = b, i
			break
		}
		if m.ready != 0 {
			// Quiescence broken mid-hold means the hold is what the generic
			// loop must retire; otherwise another task became ready.
			if lastHeld {
				reason = ExitHold
			} else {
				reason = ExitTaskSwitch
			}
			break
		}
		now := m.cycle
		m.ifu.Tick(now)
		exit := code[i](m, now)
		held := exit == instHeld
		// Service granted to task 0 every cycle it runs: step clears the
		// winner's READY flipflop in its epilogue, so an FF ReadyB naming
		// task 0 must vanish here exactly as it would there. Other bits
		// survive into READY and trip the quiescence check above.
		m.ready &^= 1
		if m.seam.wants(now, 0, held, 1) {
			m.observe(now, 0, b.addrs[i], held, !held, 1)
		}
		m.cycle++
		n++
		lastHeld = held
		if m.halted {
			reason = ExitHalt
			break
		}
		switch exit {
		case instOK:
			i++
		case instLoop:
			// Loop-back branch taken to the block's own start: restart the
			// fused run; the quiescence check above still runs every cycle.
			i = 0
		case instHeld:
			// §5.7 no-op-jump-to-self — the retired cycle changed no state
			// and curPC is unchanged, so retry the same fused instruction
			// next cycle; memory timing and the IFU advance with now.
			if m.holdUntil > m.cycle {
				n += m.retireHeld(0, b.addrs[i], 1, limit)
			}
		default:
			reason = b.termReason
			goto out // instEnd: terminator done, curPC points past the block
		}
	}
out:
	m.trans.stats.FusedCycles += n
	m.seam.blockExit(b.start, reason, m.curPC, n, m.cycle)
}

// runBlock executes b's fused cycles from code slot i on a machine with
// live controllers, pending READY work, or a non-zero task: each cycle
// performs exactly
// step's per-cycle scheduler work — the device scan at the event horizon,
// the WAKEUP latch, the READY clear and NEXT-bus notify, arbitration into
// BESTNEXTTASK, and the observation seam — with only the instruction
// fetch/decode/dispatch replaced by the fused closure, and a held cycle
// that provably repeats retires its repeats in one step (retireHeld). The
// entry guard in runTranslated plus the per-cycle BESTNEXTTASK check
// guarantee the running task keeps the processor for every fused cycle,
// so the task-switch half of step's epilogue can never be needed; the
// moment a higher-priority task is pending the block returns before
// executing the cycle and the generic loop runs it.
func (m *Machine) runBlock(b *superblock, i int, limit uint64) {
	n := uint64(0)
	code := b.code
	// Loop invariants: no fused instruction switches tasks or attaches
	// devices, so the running task (and its READY bit and NEXT-bus
	// listener) are hoisted out of the cycle loop.
	cur := m.curTask
	readyBit := uint16(1) << cur
	nextDev := m.devs[cur]
	reason := ExitFallThrough
	lastHeld := false
	for i < len(code) {
		if m.cycle >= limit {
			reason = ExitLimit
			m.trans.resume, m.trans.resumeAt = b, i
			break
		}
		if m.bestNext > cur {
			// A higher-priority task won arbitration: distinguish a device
			// wakeup (the fast-I/O churn) from READY-flipflop work, and a
			// break taken while the head instruction held from both.
			switch {
			case lastHeld:
				reason = ExitHold
			case m.devs[m.bestNext] != nil:
				reason = ExitDeviceWakeup
			default:
				reason = ExitTaskSwitch
			}
			break
		}
		now := m.cycle
		if now >= m.devQuiet {
			m.scanDevices(now)
		}
		m.ifu.Tick(now)
		lines := uint16(1) | m.ready | m.devLines
		exit := code[i](m, now)
		held := exit == instHeld
		// Service granted to the running task, as step's epilogue does
		// (translation excludes the ExplicitNotify ablation).
		m.ready &^= readyBit
		if nextDev != nil && now+1 >= m.devQuiet {
			nextDev.NotifyNext(now)
		}
		m.bestNext = 15 - bits.LeadingZeros16(lines)
		if m.seam.wants(now, cur, held, lines) {
			m.observe(now, cur, b.addrs[i], held, !held, lines)
		}
		m.cycle++
		n++
		lastHeld = held
		if m.halted {
			reason = ExitHalt
			break
		}
		switch exit {
		case instOK:
			i++
		case instLoop:
			i = 0 // loop-back branch taken to the block's own start
		case instHeld:
			// Retry the same fused instruction; the top-of-cycle
			// BESTNEXTTASK check hands a preempting wakeup to the generic
			// loop exactly one arbitration later, as step would.
			if m.holdUntil > m.cycle {
				n += m.retireHeld(cur, b.addrs[i], lines, limit)
			}
		default:
			reason = b.termReason
			goto out // instEnd
		}
	}
out:
	m.trans.stats.FusedCycles += n
	m.seam.blockExit(b.start, reason, m.curPC, n, m.cycle)
}

// translate fuses the straight-line run beginning at start into a
// superblock, or returns declined when the run is too short to be worth
// one.
// The run extends through statically-addressed NextControls (GOTO, CALL,
// LGOTO, LCALL) and closes with one dynamically-addressed terminator
// (BRANCH, RETURN, IFUJUMP, DISP8, DISP256) when present; it stops early
// at a reserved NextControl (left for the generic loop to diagnose), at
// maxBlock, or when the chain revisits an interior address. A run that
// closes back on start is a statically-proven loop: it is unrolled —
// whole iterations replicated up to maxBlock — so tight one- and
// two-word spin loops (the §7 I/O-benchmark emulator background, and the
// inner loops of block transfers) amortize block entry over many cycles.
func (m *Machine) translate(start microcode.Addr) *superblock {
	t := m.trans
	b := &superblock{start: start}
	visited := make([]microcode.Addr, 0, maxBlock)
	visited = append(visited, start)
	pc := start
	iterLen := 0 // instructions per unrolled iteration, once known
	for len(b.code) < maxBlock {
		d := &m.im.dec[pc]
		if d.block {
			b.task0Only = true
		}
		switch d.op.Kind {
		case microcode.NextGoto, microcode.NextCall,
			microcode.NextLongGoto, microcode.NextLongCall:
			s := staticSucc(pc, d)
			next := s.next
			b.code = append(b.code, fuseInst(d, s))
			b.addrs = append(b.addrs, pc)
			if next == start {
				// Closed loop: unroll further whole iterations.
				if iterLen == 0 {
					iterLen = len(b.code)
				}
				if len(b.code)+iterLen > maxBlock {
					goto done
				}
				pc = next
				continue
			}
			if iterLen == 0 {
				// First pass: stop at an interior revisit. While unrolling
				// (iterLen set) the chain is already proven to cycle through
				// start, so interior addresses repeat by construction.
				if blockContains(visited, next) {
					goto done
				}
				visited = append(visited, next)
			}
			pc = next
		case microcode.NextBranch, microcode.NextReturn, microcode.NextIFUJump,
			microcode.NextDispatch8, microcode.NextDispatch256:
			b.code = append(b.code, fuseTerm(start, pc, d))
			b.addrs = append(b.addrs, pc)
			if d.op.Kind == microcode.NextIFUJump {
				b.termReason = ExitIFUJump
			} else {
				b.termReason = ExitBranch
			}
			goto done
		default:
			// Reserved NextControl: end the block before it; executing it on
			// the generic loop panics exactly as the other paths do.
			goto done
		}
	}
done:
	if len(b.code) < 2 {
		return declined
	}
	t.stats.BlocksBuilt++
	t.stats.Instructions += uint64(len(b.code))
	m.seam.blockBuilt(start, len(b.code))
	return b
}

// blockContains reports whether a is already part of the run (blocks are
// short, so a linear scan at translation time beats a map).
func blockContains(addrs []microcode.Addr, a microcode.Addr) bool {
	for _, x := range addrs {
		if x == a {
			return true
		}
	}
	return false
}

// succ is a fused word's successor, resolved at translation time exactly
// as nextAddr computes it per cycle (§6.2.2): a static next, with the LINK
// value for the CALL kinds, or a BRANCH's page-relative pair, whose taken
// target is the untaken one with the condition ORed into the low bit
// (§5.5). Each target carries the exit the block loop acts on.
type succ struct {
	next, link microcode.Addr
	nextExit   instExit
	isCall     bool
	branch     bool
	cond       microcode.Condition
	taken      microcode.Addr
	takenExit  instExit
}

// staticSucc resolves a statically-addressed NextControl (GOTO, CALL,
// LGOTO, LCALL).
func staticSucc(pc microcode.Addr, d *decoded) succ {
	s := succ{link: (pc + 1) & microcode.AddrMask, nextExit: instOK}
	switch d.op.Kind {
	case microcode.NextGoto, microcode.NextCall:
		s.next = pc&^microcode.Addr(microcode.WordMask) | microcode.Addr(d.op.W)
	case microcode.NextLongGoto, microcode.NextLongCall:
		s.next = microcode.MakeAddr(d.ff, d.op.W)
	}
	s.isCall = d.op.Kind == microcode.NextCall || d.op.Kind == microcode.NextLongCall
	return s
}

// branchSucc resolves a BRANCH terminator's two targets. Either one is the
// block's end, except a target equal to the block's own start (the
// count-controlled loop-back that closes §7 BitBlt's inner loop): that one
// reports instLoop, so the block loop restarts without re-entering through
// runTranslated.
func branchSucc(start, pc microcode.Addr, d *decoded) succ {
	untaken := pc&^microcode.Addr(microcode.WordMask) | microcode.Addr(d.op.W)
	s := succ{next: untaken, nextExit: instEnd, branch: true, cond: d.op.Cond,
		taken: untaken | 1, takenExit: instEnd}
	if s.next == start {
		s.nextExit = instLoop
	}
	if s.taken == start {
		s.takenExit = instLoop
	}
	return s
}

// fuseInst compiles one statically-successored microword: a specialized
// closure when the word fits a template, the exec-backed generic closure
// otherwise.
func fuseInst(d *decoded, s succ) instFn {
	if fn := fuseALU(d, s); fn != nil {
		return fn
	}
	if fn := fuseWide(d, s); fn != nil {
		return fn
	}
	return fuseExec(d, instOK)
}

// fuseExec is the generic fused form: the word runs through exec
// (identical semantics by construction — hold detection, memory issue, FF,
// stores, LINK, the successor), and exit tells the block loop what
// follows: instOK for a statically-successored word, instEnd for the
// terminator.
func fuseExec(d *decoded, exit instExit) instFn {
	return func(m *Machine, now uint64) instExit {
		held, _, nextPC := m.exec(d, now)
		if held {
			return instHeld
		}
		m.curPC = nextPC
		return exit
	}
}

// fuseTerm compiles the block's dynamically-successored terminator: the
// memory/MD template for a BRANCH whose data section fits it, exec in full
// for the rest (RETURN, IFUJUMP, dispatch — linkage reads, IFU dispatch
// side effects, dispatch address arithmetic). IOATTEN is the one branch
// condition left to exec: it reads a device.
func fuseTerm(start, pc microcode.Addr, d *decoded) instFn {
	if d.op.Kind == microcode.NextBranch && d.op.Cond != microcode.CondIOAtten {
		if fn := fuseWide(d, branchSucc(start, pc, d)); fn != nil {
			return fn
		}
	}
	return fuseExec(d, instEnd)
}

// Operand-source kinds for the specialized templates.
const (
	srcConst = iota
	srcRM
	srcT
	srcQ
	srcMD
)

// operandKinds resolves a word's A and B sources to template operand
// kinds, once, at translation time. Callers exclude the IFU operand
// sources, which no template reads. MEMADDRESS is a copy of A, so the
// Fetch and Store selectors read the RM word.
func operandKinds(d *decoded) (aKind, bKind int) {
	switch d.aSel {
	case microcode.ASelT:
		aKind = srcT
	case microcode.ASelMD:
		aKind = srcMD
	default: // RM, Fetch, Store
		aKind = srcRM
	}
	bKind = srcConst
	if !d.isConstB {
		switch d.bSel {
		case microcode.BSelRM:
			bKind = srcRM
		case microcode.BSelT:
			bKind = srcT
		case microcode.BSelQ:
			bKind = srcQ
		case microcode.BSelMD:
			bKind = srcMD
		}
	}
	return aKind, bKind
}

// fuseALU compiles the register/stack ALU template: no hold sources, no
// memory reference, no FF operation, register or constant operands, result
// to T/RM/stack. This is the §6.3 data-section fast case — the bulk of
// emulator opcode bodies and BitBlt setup code — with every per-cycle
// decode branch of exec resolved at translation time. It takes only static
// successors. Returns nil when the word does not fit the template.
func fuseALU(d *decoded, s succ) instFn {
	if d.usesMD || d.usesIFUData || d.ifuJump || d.startsMem ||
		d.ffop != microcode.FFNop || d.ffRMDest >= 0 || d.ffMemBase >= 0 {
		return nil
	}
	aKind, bKind := operandKinds(d)
	bConst := d.constB
	next, link, isCall := s.next, s.link, s.isCall
	raddr := d.raddr
	aluIdx := d.aluOp
	loadsT, loadsRM := d.loadsT, d.loadsRM
	if d.block {
		// Stack-modifier variant (§6.3.3): the containing block is
		// task0Only, so the stack unconditionally replaces RM.
		delta := int(d.stackDelta)
		return func(m *Machine, now uint64) instExit {
			m.stats.TaskCycles[0]++
			ts := &m.tasks[0]
			rmVal := m.stack[m.stackPtr]
			word := int(m.stackPtr) & (StackWords - 1)
			nw := word + delta
			if nw < 0 || nw >= StackWords {
				ts.stackErr = true
			}
			stNewPtr := m.stackPtr&^uint8(StackWords-1) | uint8(nw&(StackWords-1))
			aVal := rmVal
			if aKind == srcT {
				aVal = ts.t
			}
			var bVal uint16
			switch bKind {
			case srcConst:
				bVal = bConst
			case srcRM:
				bVal = rmVal
			case srcT:
				bVal = ts.t
			case srcQ:
				bVal = m.q
			}
			ctl := m.alufm[aluIdx]
			res, carry, ovf := aluOp(ctl, aVal, bVal, ts.savedCarry)
			ts.zero = res == 0
			ts.neg = res&0x8000 != 0
			ts.carry = carry
			ts.ovf = ovf
			if ctl.Fn.IsArith() {
				ts.savedCarry = carry
			}
			if loadsT {
				ts.t = res
			}
			if loadsRM {
				m.stack[stNewPtr] = res
			}
			m.stackPtr = stNewPtr
			if isCall {
				ts.link = link
			}
			m.stats.Executed++
			m.stats.TaskExecuted[0]++
			m.curPC = next
			return instOK
		}
	}
	return func(m *Machine, now uint64) instExit {
		cur := m.curTask
		m.stats.TaskCycles[cur]++
		ts := &m.tasks[cur]
		rIndex := m.rbase<<4 | raddr
		var aVal uint16
		if aKind == srcT {
			aVal = ts.t
		} else {
			aVal = m.rm[rIndex]
		}
		var bVal uint16
		switch bKind {
		case srcConst:
			bVal = bConst
		case srcRM:
			bVal = m.rm[rIndex]
		case srcT:
			bVal = ts.t
		case srcQ:
			bVal = m.q
		}
		ctl := m.alufm[aluIdx]
		res, carry, ovf := aluOp(ctl, aVal, bVal, ts.savedCarry)
		ts.zero = res == 0
		ts.neg = res&0x8000 != 0
		ts.carry = carry
		ts.ovf = ovf
		if ctl.Fn.IsArith() {
			ts.savedCarry = carry
		}
		if loadsT {
			ts.t = res
		}
		if loadsRM {
			m.rm[rIndex] = res
		}
		if isCall {
			ts.link = link
		}
		m.stats.Executed++
		m.stats.TaskExecuted[cur]++
		m.curPC = next
		return instOK
	}
}

// fuseWide compiles the memory/MD template: the inner-loop shape of block
// transfers (§7's BitBlt) and emulator frame access — Fetch/Store words
// with a same-instruction FF MEMBASE constant, MD operands, FF RM-write
// redirection, and FF COUNT constants. Hold detection (MD readiness, cache
// admission with the pre-applied base, §5.7) is kept per cycle because it
// must be, but every decode branch — operand routing, the FF dispatch, the
// destination index, the successor — is resolved at translation time. The
// admitted FF subset never overrides RESULT, so the ALU result is the
// stored value. s is a static successor, or a BRANCH pair (branchSucc):
// then the word that closes a block-transfer inner loop — store, count
// decrement, loop-back — runs fused like the rest of the loop. Returns nil
// when the word does not fit.
func fuseWide(d *decoded, s succ) instFn {
	if d.usesIFUData || d.ifuJump || d.block {
		return nil
	}
	countConst := -1
	switch {
	case d.ffop == microcode.FFNop, d.ffMemBase >= 0, d.ffRMDest >= 0:
	case d.ffop >= microcode.FFCountBase && d.ffop < microcode.FFCountBase+16:
		countConst = int(d.ffop - microcode.FFCountBase)
	default:
		return nil
	}
	aKind, bKind := operandKinds(d)
	bConst := d.constB
	usesMD := d.usesMD
	startsMem, isStore := d.startsMem, d.isStore
	mbConst := int(d.ffMemBase)
	raddr := d.raddr
	wRaddr := raddr
	if d.ffRMDest >= 0 {
		wRaddr = uint8(d.ffRMDest)
	}
	aluIdx := d.aluOp
	loadsT, loadsRM := d.loadsT, d.loadsRM
	return func(m *Machine, now uint64) instExit {
		cur := m.curTask
		m.stats.TaskCycles[cur]++
		// Hold phase, in exec's order: MD readiness, then memory admission
		// (admit). No state changes on a hold.
		if usesMD && !m.mdReady(now) {
			m.hold(&m.stats.HoldMD, m.mdReadyAt())
			return instHeld
		}
		rIndex := m.rbase<<4 | raddr
		var ref memory.Ref
		if startsMem {
			var ok bool
			if ref, ok = m.admit(d, m.rm[rIndex], now); !ok {
				return instHeld
			}
		}
		ts := &m.tasks[cur]
		var aVal uint16
		switch aKind {
		case srcT:
			aVal = ts.t
		case srcMD:
			aVal = m.mem.MD(cur, now)
		default:
			aVal = m.rm[rIndex]
		}
		var bVal uint16
		switch bKind {
		case srcConst:
			bVal = bConst
		case srcRM:
			bVal = m.rm[rIndex]
		case srcT:
			bVal = ts.t
		case srcQ:
			bVal = m.q
		case srcMD:
			bVal = m.mem.MD(cur, now)
		}
		ctl := m.alufm[aluIdx]
		res, carry, ovf := aluOp(ctl, aVal, bVal, ts.savedCarry)
		ts.zero = res == 0
		ts.neg = res&0x8000 != 0
		ts.carry = carry
		ts.ovf = ovf
		if ctl.Fn.IsArith() {
			ts.savedCarry = carry
		}
		// FF effects for the admitted subset, then the issue of the
		// reference admitted above (exec's order).
		if mbConst >= 0 {
			m.membase = uint8(mbConst)
		}
		if countConst >= 0 {
			m.count = uint16(countConst)
		}
		if startsMem {
			if isStore {
				m.mem.Write(cur, ref, bVal, now)
			} else {
				m.mem.Read(cur, ref, now)
			}
		}
		if loadsT {
			ts.t = res
		}
		if loadsRM {
			m.rm[m.rbase<<4|wRaddr] = res
		}
		if s.isCall {
			ts.link = s.link
		}
		m.stats.Executed++
		m.stats.TaskExecuted[cur]++
		if s.branch && m.evalCond(s.cond, ts, now) {
			m.curPC = s.taken
			return s.takenExit
		}
		m.curPC = s.next
		return s.nextExit
	}
}
