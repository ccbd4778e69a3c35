package core

import (
	"fmt"

	"dorado/internal/memory"
	"dorado/internal/microcode"
)

// exec runs the instruction at (curTask, curPC) for one cycle, driven by
// its decoded form d (from the microstore, or decoded on the fly by the
// reference interpreter). It returns held=true when the instruction
// could not proceed (§5.7: it becomes "no-op, jump to self": no state
// changes, nextPC = curPC, Block suppressed), blocked=true when the
// instruction released the processor, and the successor address otherwise.
func (m *Machine) exec(d *decoded, now uint64) (held, blocked bool, nextPC microcode.Addr) {
	ts := &m.tasks[m.curTask]
	ffop := d.ffop
	m.stats.TaskCycles[m.curTask]++

	// ---- Hold phase: detect every reason this instruction cannot proceed,
	// without changing any state (§5.7). ----
	if d.usesMD && !m.mdReady(now) {
		return m.hold(&m.stats.HoldMD, m.mdReadyAt())
	}
	if d.usesIFUData && !m.ifu.OperandReady() {
		return m.hold(&m.stats.HoldIFU, 0)
	}
	if d.ifuJump && !m.ifu.DispatchReady(now) {
		return m.hold(&m.stats.HoldIFU, 0)
	}
	rIndex := m.rbase<<4 | d.raddr
	useStack := d.block && m.curTask == 0 // "selects a stack operation for task 0" (§6.3.1)
	var ref memory.Ref
	if d.startsMem {
		// MEMADDRESS is a copy of A (§6.3.2): the IFU operand, the stack
		// top or the RM word, read here before any state changes.
		var disp uint16
		switch {
		case d.aSel == microcode.ASelFetchIFU || d.aSel == microcode.ASelStoreIFU:
			disp = m.ifu.PeekOperand() // readiness checked above
		case useStack:
			disp = m.stack[m.stackPtr]
		default:
			disp = m.rm[rIndex]
		}
		var ok bool
		if ref, ok = m.admit(d, disp, now); !ok {
			return true, false, m.curPC
		}
	}

	// ---- Operand fetch (first half-cycle, t0–t1 of Figure 2). ----

	// The RM-or-stack word: the stack modifier replaces RM for both the A
	// and B sides and turns RAddress into a signed STACKPTR delta (§6.3.3:
	// "If STACK is used in a microinstruction, it replaces any use of RM").
	var rmVal uint16
	var stNewPtr uint8
	if useStack {
		rmVal = m.stack[m.stackPtr]
		delta := int(d.stackDelta)
		word := int(m.stackPtr) & (StackWords - 1)
		nw := word + delta
		if nw < 0 || nw >= StackWords {
			ts.stackErr = true // underflow/overflow checking (§6.3.3)
		}
		stNewPtr = m.stackPtr&^uint8(StackWords-1) | uint8(nw&(StackWords-1))
	} else {
		rmVal = m.rm[rIndex]
	}

	var aVal uint16
	switch d.aSel {
	case microcode.ASelRM, microcode.ASelFetch, microcode.ASelStore:
		aVal = rmVal
	case microcode.ASelT:
		aVal = ts.t
	case microcode.ASelIFUData, microcode.ASelFetchIFU, microcode.ASelStoreIFU:
		aVal = m.ifu.Operand()
	case microcode.ASelMD:
		aVal = m.mem.MD(m.curTask, now)
	}

	var bVal uint16
	if d.isConstB {
		bVal = d.constB // the §5.9 constant scheme, resolved at predecode
	} else {
		switch d.bSel {
		case microcode.BSelRM:
			bVal = rmVal
		case microcode.BSelT:
			bVal = ts.t
		case microcode.BSelQ:
			bVal = m.q
		case microcode.BSelMD:
			bVal = m.mem.MD(m.curTask, now)
		}
	}
	if ffop == microcode.FFInput {
		// IODATA drives the B bus (§6.3.2: the bus "can serve as a source
		// as well"), so one instruction can move a device word through the
		// ALU *and* into memory — the 3-cycles-per-2-words disk idiom (§7).
		if dev := m.devs[ts.ioadr&15]; dev != nil {
			bVal = dev.Input(now)
			m.touched(ts.ioadr & 15)
		} else {
			bVal = 0
		}
	}

	// Model-0 missing bypass (§5.6): the previous instruction's register
	// write lands only now, after this instruction read its operands.
	if m.cfg.Options.NoBypass {
		m.flushPending()
	}

	// ---- ALU (second half-cycle through cycle 3 first half). ----
	ctl := m.alufm[d.aluOp]
	res, carry, ovf := aluOp(ctl, aVal, bVal, ts.savedCarry)
	ts.zero = res == 0
	ts.neg = res&0x8000 != 0
	ts.carry = carry
	ts.ovf = ovf
	if ctl.Fn.IsArith() {
		ts.savedCarry = carry
	}

	// ---- FF function (decoded at t0–t1, §5.5). May drive RESULT. ----
	result := res
	if ffop != microcode.FFNop && ffop != microcode.FFInput {
		result = m.execFF(ffop, d, aVal, rmVal, bVal, res, now)
	}

	// ---- Memory reference issue: commit the reference the hold phase
	// admitted. ----
	if d.startsMem {
		if d.isStore {
			// The stored word is the B bus — which FFInput may be driving
			// from IODATA (§5.8: memory reference + I/O transfer in one
			// instruction).
			m.mem.Write(m.curTask, ref, bVal, now)
		} else {
			m.mem.Read(m.curTask, ref, now)
		}
	}

	// ---- Result stores (second half of cycle 3, t3–t4). ----
	wIndex := rIndex
	if d.ffRMDest >= 0 {
		// "loading a different register can be specified by FF" (§6.3.3).
		wIndex = m.rbase<<4 | uint8(d.ffRMDest)
	}
	if d.loadsT || d.loadsRM {
		m.storeResult(d, ts, wIndex, stNewPtr, useStack, result)
	}
	if useStack {
		m.stackPtr = stNewPtr
	}

	// ---- NEXTPC (§6.2.2). ----
	nextPC = m.nextAddr(d, ts, bVal, now)
	if d.op.Kind == microcode.NextBranch && m.cfg.Options.DelayedBranch {
		m.stalls = 1 // the conventional-design ablation: +1 cycle per branch
	}

	m.stats.Executed++
	m.stats.TaskExecuted[m.curTask]++
	// For task 0 the Block bit is the stack modifier, not a release: the
	// emulator never blocks (§5.1: task 0 requests service at all times).
	blocked = d.block && m.curTask != 0
	return false, blocked, nextPC
}

// hold accounts one held cycle on counter and records it for retireHeld:
// release is the cycle before which the instruction provably holds again,
// or 0 when that cannot be known (then retireHeld never reads holdOn, and
// the constant 0 of the IFU holds leaves it unwritten).
func (m *Machine) hold(counter *uint64, release uint64) (bool, bool, microcode.Addr) {
	*counter++
	m.stats.Holds++
	m.holdUntil = release
	if release != 0 {
		m.holdOn = counter
	}
	return true, false, m.curPC
}

// admit is the hold phase's memory check (§5.7) for exec and the fused
// memory template. It forms the reference's VA from disp and MEMBASE, or
// from a same-word FF MemBase constant, which FF decodes before the
// reference (§5.5), and asks the memory to admit it; a refusal is charged
// as a hold. The issue after the FF function commits the returned Ref, so
// a same-word B-bus load of MEMBASE or a base register (FF PutMemBase,
// PutBaseLo, PutBaseHi) applies from the next reference.
func (m *Machine) admit(d *decoded, disp uint16, now uint64) (memory.Ref, bool) {
	mb := m.membase
	if d.ffMemBase >= 0 {
		mb = uint8(d.ffMemBase)
	}
	r, release, ok := m.mem.Admit(m.curTask, m.mem.VA(mb, disp), d.isStore, now)
	if !ok {
		m.hold(&m.stats.HoldMem, release)
	}
	return r, ok
}

// mdReady consults the memory, honoring the fixed-wait ablation (§5.7).
func (m *Machine) mdReady(now uint64) bool {
	if m.cfg.Options.FixedWaitMemory {
		return m.mem.MDReadyFixed(m.curTask, now)
	}
	return m.mem.MDReady(m.curTask, now)
}

// mdReadyAt is the cycle a held use of MD releases, under the same
// ablation.
func (m *Machine) mdReadyAt() uint64 {
	return m.mem.MDReadyAt(m.curTask, m.cfg.Options.FixedWaitMemory)
}

// storeResult routes RESULT to RM/stack and/or T, immediately (bypassed) or
// delayed one instruction (the NoBypass ablation).
func (m *Machine) storeResult(d *decoded, ts *taskState, rIndex, stNewPtr uint8, useStack bool, result uint16) {
	if !m.cfg.Options.NoBypass {
		if d.loadsT {
			ts.t = result
		}
		if d.loadsRM {
			if useStack {
				m.stack[stNewPtr] = result
			} else {
				m.rm[rIndex] = result
			}
		}
		return
	}
	p := pendingWrite{valid: true, val: result}
	if d.loadsT {
		p.toT = true
		p.task = m.curTask
	}
	if d.loadsRM {
		if useStack {
			p.toStack = true
			p.stIndex = stNewPtr
		} else {
			p.toRM = true
			p.rmIndex = rIndex
		}
	}
	m.flushPending() // at most one write can be in flight
	m.pend = p
}

// flushPending lands the delayed register write of the NoBypass ablation.
func (m *Machine) flushPending() {
	if !m.pend.valid {
		return
	}
	if m.pend.toT {
		m.tasks[m.pend.task].t = m.pend.val
	}
	if m.pend.toRM {
		m.rm[m.pend.rmIndex] = m.pend.val
	}
	if m.pend.toStack {
		m.stack[m.pend.stIndex] = m.pend.val
	}
	m.pend = pendingWrite{}
}

// nextAddr computes NEXTPC from the predecoded NextControl (§6.2.2,
// Figure 7).
func (m *Machine) nextAddr(d *decoded, ts *taskState, bVal uint16, now uint64) microcode.Addr {
	op := d.op
	page := m.curPC &^ microcode.Addr(microcode.WordMask)
	switch op.Kind {
	case microcode.NextGoto:
		return page | microcode.Addr(op.W)
	case microcode.NextCall:
		ts.link = (m.curPC + 1) & microcode.AddrMask
		return page | microcode.Addr(op.W)
	case microcode.NextBranch:
		t := page | microcode.Addr(op.W)
		if m.evalCond(op.Cond, ts, now) {
			t |= 1 // ORed into the low bit of NEXTPC (§5.5)
		}
		return t
	case microcode.NextLongGoto:
		return microcode.MakeAddr(d.ff, op.W)
	case microcode.NextLongCall:
		ts.link = (m.curPC + 1) & microcode.AddrMask
		return microcode.MakeAddr(d.ff, op.W)
	case microcode.NextReturn:
		return ts.link
	case microcode.NextIFUJump:
		a, mb := m.ifu.Dispatch(now)
		if mb >= 0 {
			// §6.3.3: MEMBASE loaded from the IFU at the start of a
			// macroinstruction.
			m.membase = uint8(mb) & 0x1F
		}
		return a
	case microcode.NextDispatch8:
		return page | microcode.Addr(d.ff&0x8) | microcode.Addr(bVal&7)
	case microcode.NextDispatch256:
		return microcode.Addr(d.ff&0xF)<<8 | microcode.Addr(bVal&0xFF)
	}
	panic(fmt.Sprintf("core: reserved NextControl %#02x at %v", d.next, m.curPC))
}

// evalCond evaluates one of the eight branch conditions (§5.5). Conditions
// derive from the *current* instruction's ALU outputs — the Dorado computes
// and uses a branch condition in the same microinstruction, with the
// late-arriving bit folded into the microstore chip select so it costs no
// cycle (§5.5).
func (m *Machine) evalCond(c microcode.Condition, ts *taskState, now uint64) bool {
	switch c {
	case microcode.CondALUZero:
		return ts.zero
	case microcode.CondALUNeg:
		return ts.neg
	case microcode.CondCarry:
		return ts.carry
	case microcode.CondCountNZ:
		// "decremented and tested for zero in one microinstruction" (§6.3.3):
		// taken while COUNT≠0, decrementing as a side effect.
		if m.count != 0 {
			m.count--
			return true
		}
		return false
	case microcode.CondOverflow:
		return ts.ovf
	case microcode.CondStackError:
		v := ts.stackErr
		ts.stackErr = false
		return v
	case microcode.CondIOAtten:
		if d := m.devs[ts.ioadr&15]; d != nil {
			return d.Atten()
		}
		return false
	case microcode.CondMB:
		return ts.mb
	}
	return false
}
