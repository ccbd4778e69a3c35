package core

import (
	"fmt"

	"dorado/internal/microcode"
	"dorado/internal/state"
)

// Snapshot sections owned by the processor. The memory system, IFU, and
// devices append their own sections after these.
const (
	sectCoreConfig = "CONF"
	sectCoreCtrl   = "CTRL"
	sectCoreData   = "DATA"
	sectCoreStats  = "STAT"
	sectCoreStore  = "UIMS"
	sectCoreDevs   = "DEVS"
)

// snapshotSlack sizes the part of a snapshot besides storage, microstore
// and cache tags: registers, counters, the IFU's decode table, devices.
const snapshotSlack = 16 << 10

// Snapshot captures the complete machine state — control section, data
// section, microstore, counters, memory system, IFU, and every attached
// device — as one versioned binary document (see internal/state).
//
// Config.Reference is deliberately NOT part of the snapshot: it selects an
// interpreter implementation, not machine state, so a snapshot taken on one
// interpreter path restores onto the other. Two machines in identical
// architectural states produce byte-identical snapshots regardless of path,
// which is the equality oracle the differential fuzzer is built on.
func (m *Machine) Snapshot() []byte {
	// Storage and the microstore are nearly all of the document; cache tags
	// take under a byte per cached word, and snapshotSlack covers the rest.
	mc := m.mem.Config()
	e := state.NewEncoder(2*mc.StorageWords + mc.CacheWords + 8*microcode.StoreSize + snapshotSlack)

	e.Section(sectCoreConfig)
	var opt uint8
	if m.cfg.Options.NoBypass {
		opt |= 1 << 0
	}
	if m.cfg.Options.DelayedBranch {
		opt |= 1 << 1
	}
	if m.cfg.Options.ExplicitNotify {
		opt |= 1 << 2
	}
	if m.cfg.Options.FixedWaitMemory {
		opt |= 1 << 3
	}
	e.U8(opt)
	e.U8(uint8(m.cfg.FaultTask))

	e.Section(sectCoreCtrl)
	e.U64(m.cycle)
	e.Bool(m.halted)
	e.U16(uint16(m.haltPC))
	e.U64(m.stalls)
	e.U8(uint8(m.curTask))
	e.U8(uint8(m.lastTask))
	e.U16(uint16(m.curPC))
	e.I8(int8(m.bestNext))
	e.U16(m.ready)
	for i := range m.tasks {
		ts := &m.tasks[i]
		e.U16(uint16(ts.tpc))
		e.U16(uint16(ts.link))
		e.U16(ts.t)
		e.U16(ts.ioadr)
		var fl uint8
		if ts.zero {
			fl |= 1 << 0
		}
		if ts.neg {
			fl |= 1 << 1
		}
		if ts.carry {
			fl |= 1 << 2
		}
		if ts.ovf {
			fl |= 1 << 3
		}
		if ts.savedCarry {
			fl |= 1 << 4
		}
		if ts.mb {
			fl |= 1 << 5
		}
		if ts.stackErr {
			fl |= 1 << 6
		}
		e.U8(fl)
	}

	e.Section(sectCoreData)
	e.U16s(m.rm[:])
	e.U16s(m.stack[:])
	e.U8(m.stackPtr)
	e.U16(m.count)
	e.U16(m.q)
	e.U8(m.rbase)
	e.U8(m.membase)
	e.U16(m.shiftCtl)
	for _, c := range m.alufm {
		e.U8(microcode.EncodeALUCtl(c))
	}
	e.U16(m.cpreg)
	e.Bool(m.pend.valid)
	e.Bool(m.pend.toT)
	e.U8(uint8(m.pend.task))
	e.Bool(m.pend.toRM)
	e.U8(m.pend.rmIndex)
	e.Bool(m.pend.toStack)
	e.U8(m.pend.stIndex)
	e.U16(m.pend.val)

	e.Section(sectCoreStats)
	e.U64(m.stats.Cycles)
	e.U64(m.stats.Executed)
	e.U64(m.stats.Holds)
	e.U64(m.stats.HoldMD)
	e.U64(m.stats.HoldMem)
	e.U64(m.stats.HoldIFU)
	e.U64(m.stats.TaskSwitches)
	e.U64(m.stats.Blocks)
	e.U64(m.stats.Preemptions)
	e.U64(m.stats.BranchStalls)
	for _, c := range m.stats.TaskCycles {
		e.U64(c)
	}
	for _, c := range m.stats.TaskExecuted {
		e.U64(c)
	}

	e.Section(sectCoreStore)
	for i := range m.im {
		e.U64(m.im[i].Encode())
	}

	m.mem.SaveState(e)
	m.ifu.SaveState(e)

	e.Section(sectCoreDevs)
	e.U8(uint8(len(m.att)))
	for _, ad := range m.att {
		e.U8(uint8(ad.task))
		ad.dev.SaveState(e)
	}

	return e.Bytes()
}

// Restore replaces the machine's state with a snapshot taken by Snapshot.
// The target must be configured like the source: same ablation options,
// fault task, memory geometry and timing, IFU timing, and the same device
// set attached to the same tasks (device configuration lives in Go
// constructors, only device *state* is in the snapshot).
//
// Restoring rebuilds the predecode cache from the restored microstore: the
// dim cache is derived state, never serialized, so the restored machine
// executes identically on both interpreter paths.
//
// Restore refuses a snapshot whose task numbers, microaddresses, IFU
// operand latch or decode rows, or microstore words
// (microcode.Word.Validate) no machine can hold, before the offending
// value is installed. A refused restore may
// leave part of the snapshot in place, so restore a good one before
// running the machine again.
func (m *Machine) Restore(data []byte) error {
	d, err := state.NewDecoder(data)
	if err != nil {
		return err
	}
	m.endQuiet() // device and memory timing are about to change

	if err := d.Section(sectCoreConfig); err != nil {
		return err
	}
	opt := d.U8()
	faultTask := d.U8()
	if err := d.Err(); err != nil {
		return err
	}
	want := Options{
		NoBypass:        opt&(1<<0) != 0,
		DelayedBranch:   opt&(1<<1) != 0,
		ExplicitNotify:  opt&(1<<2) != 0,
		FixedWaitMemory: opt&(1<<3) != 0,
	}
	if want != m.cfg.Options {
		return fmt.Errorf("core: snapshot options %+v, machine options %+v", want, m.cfg.Options)
	}
	if int(faultTask) != m.cfg.FaultTask {
		return fmt.Errorf("core: snapshot fault task %d, machine fault task %d", faultTask, m.cfg.FaultTask)
	}

	if err := d.Section(sectCoreCtrl); err != nil {
		return err
	}
	m.cycle = d.U64()
	m.halted = d.Bool()
	m.haltPC = microcode.Addr(d.U16())
	m.stalls = d.U64()
	curTask := int(d.U8())
	m.lastTask = int(d.U8())
	curPC := microcode.Addr(d.U16())
	bestNext := int(d.I8())
	m.ready = d.U16()
	if curTask >= NumTasks || bestNext < 0 || bestNext >= NumTasks || curPC > microcode.AddrMask {
		return fmt.Errorf("core: snapshot runs task %d at %v with BESTNEXTTASK %d: out of range", curTask, curPC, bestNext)
	}
	m.curTask, m.curPC, m.bestNext = curTask, curPC, bestNext
	for i := range m.tasks {
		tpc, link := microcode.Addr(d.U16()), microcode.Addr(d.U16())
		if tpc > microcode.AddrMask || link > microcode.AddrMask {
			return fmt.Errorf("core: snapshot task %d TPC %v, LINK %v: out of range", i, tpc, link)
		}
		ts := &m.tasks[i]
		ts.tpc, ts.link = tpc, link
		ts.t = d.U16()
		ts.ioadr = d.U16()
		fl := d.U8()
		ts.zero = fl&(1<<0) != 0
		ts.neg = fl&(1<<1) != 0
		ts.carry = fl&(1<<2) != 0
		ts.ovf = fl&(1<<3) != 0
		ts.savedCarry = fl&(1<<4) != 0
		ts.mb = fl&(1<<5) != 0
		ts.stackErr = fl&(1<<6) != 0
	}

	if err := d.Section(sectCoreData); err != nil {
		return err
	}
	d.U16s(m.rm[:])
	d.U16s(m.stack[:])
	m.stackPtr = d.U8()
	m.count = d.U16()
	m.q = d.U16()
	m.rbase = d.U8()
	m.membase = d.U8()
	m.shiftCtl = d.U16()
	for i := range m.alufm {
		m.alufm[i] = microcode.DecodeALUCtl(d.U8())
	}
	m.cpreg = d.U16()
	p := pendingWrite{valid: d.Bool(), toT: d.Bool(), task: int(d.U8()), toRM: d.Bool(),
		rmIndex: d.U8(), toStack: d.Bool(), stIndex: d.U8(), val: d.U16()}
	if p.task >= NumTasks {
		return fmt.Errorf("core: snapshot's pending register write names task %d", p.task)
	}
	m.pend = p

	if err := d.Section(sectCoreStats); err != nil {
		return err
	}
	m.stats.Cycles = d.U64()
	m.stats.Executed = d.U64()
	m.stats.Holds = d.U64()
	m.stats.HoldMD = d.U64()
	m.stats.HoldMem = d.U64()
	m.stats.HoldIFU = d.U64()
	m.stats.TaskSwitches = d.U64()
	m.stats.Blocks = d.U64()
	m.stats.Preemptions = d.U64()
	m.stats.BranchStalls = d.U64()
	for i := range m.stats.TaskCycles {
		m.stats.TaskCycles[i] = d.U64()
	}
	for i := range m.stats.TaskExecuted {
		m.stats.TaskExecuted[i] = d.U64()
	}

	if err := d.Section(sectCoreStore); err != nil {
		return err
	}
	for i := range m.im {
		w := microcode.Decode(d.U64())
		if err := w.Validate(); err != nil {
			return fmt.Errorf("core: snapshot microstore word %v: %w", microcode.Addr(i), err)
		}
		m.im[i] = w
	}
	if err := d.Err(); err != nil {
		return err
	}
	// The restore-invalidates-predecode rule: dim is derived from im and is
	// never serialized, so it must be rebuilt here, exactly as Load does.
	// Superblock caches are derived state too: flushing them guarantees a
	// snapshot taken mid-block rehydrates onto the generic cycle loop and
	// re-translates from scratch — restore is deterministic whether
	// or not the snapshotting machine had translation on.
	m.predecodeAll()
	m.trans.reset()

	if err := m.mem.LoadState(d); err != nil {
		return err
	}
	if err := m.ifu.LoadState(d); err != nil {
		return err
	}

	if err := d.Section(sectCoreDevs); err != nil {
		return err
	}
	n := int(d.U8())
	if n != len(m.att) {
		return fmt.Errorf("core: snapshot has %d devices, machine has %d attached", n, len(m.att))
	}
	for i := 0; i < n; i++ {
		task := int(d.U8())
		if err := d.Err(); err != nil {
			return err
		}
		if i >= len(m.att) || m.att[i].task != task {
			return fmt.Errorf("core: snapshot device #%d is on task %d, machine differs", i, task)
		}
		m.att[i].dev.LoadState(d)
	}

	return d.Finish()
}
