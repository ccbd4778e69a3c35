package core

import (
	"bytes"
	"encoding/binary"
	"fmt"

	"dorado/internal/memory"
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

// snapshotSlack sizes the part of a snapshot besides the microstore,
// cache tags and storage pages: registers, counters, the IFU's decode
// table and devices, about 5 KiB on every §7 workload.
const snapshotSlack = 8 << 10

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
	// The microstore and the storage pages are most of the document: each
	// page with words of its own takes at most its index and its words.
	// Cache tags take under a byte per cached word, and snapshotSlack
	// covers the rest.
	pages := m.mem.OwnedPages() * (4 + 2*memory.PageWords)
	c := state.Encode(m.mem.Config().CacheWords + 8*microcode.StoreSize + pages + snapshotSlack)
	m.state(c)
	return c.Bytes()
}

// Restore replaces the machine's state with a snapshot taken by Snapshot.
// The target must be configured like the source: same ablation options,
// fault task, memory geometry, and the same device set attached to the
// same tasks (device configuration lives in Go constructors, only device
// *state* is in the snapshot).
//
// Restore refuses a snapshot whose task numbers, microaddresses, IFU
// operand latch, buffer or decode rows, microstore words
// (microcode.Word.Validate) or device list no machine can hold, each
// before the offending value is installed. A refused restore leaves part
// of the snapshot in place, every installed value one the machine can
// run with, so restore a good one (or build a fresh machine) before
// relying on it again.
//
// A microstore that the machine's own store or a shared image holds is
// installed by pointing at that store, with no word decoded; any other is
// written into a store of the machine's own, each word decoded only where
// it differs from the word stored. The IFU's decode table is installed
// the same way. Whether it succeeds or not, Restore then flushes the
// superblock translator, whose blocks and budget continuation depend on
// where the machine was, not on the snapshot.
func (m *Machine) Restore(data []byte) error {
	c, err := state.Decode(data)
	if err != nil {
		return err
	}
	m.endQuiet() // device and memory timing are about to change
	m.state(c)
	m.trans.reset()
	return c.Finish()
}

// state describes the whole machine to a snapshot codec: the processor's
// sections, then the memory system's, the IFU's and every attached
// device's. Snapshot encodes through it and Restore decodes.
func (m *Machine) state(c *state.Codec) {
	c.Section(sectCoreConfig)
	opt, ft := m.cfg.Options, m.cfg.FaultTask
	c.Bits(&opt.NoBypass, &opt.DelayedBranch, &opt.ExplicitNotify, &opt.FixedWaitMemory)
	c.Int(&ft, NumTasks)
	if opt != m.cfg.Options || ft != m.cfg.FaultTask {
		c.Fail(fmt.Errorf("core: snapshot options %+v and fault task %d, machine options %+v and fault task %d",
			opt, ft, m.cfg.Options, m.cfg.FaultTask))
	}

	c.Section(sectCoreCtrl)
	c.U64(&m.cycle)
	c.Bool(&m.halted)
	codeAddr(c, &m.haltPC)
	c.U64(&m.stalls)
	c.Int(&m.curTask, NumTasks)
	c.Int(&m.lastTask, NumTasks)
	codeAddr(c, &m.curPC)
	c.Int(&m.bestNext, NumTasks)
	c.U16(&m.ready)
	for i := range m.tasks {
		ts := &m.tasks[i]
		codeAddr(c, &ts.tpc)
		codeAddr(c, &ts.link)
		c.U16(&ts.t)
		c.U16(&ts.ioadr)
		c.Bits(&ts.zero, &ts.neg, &ts.carry, &ts.ovf, &ts.savedCarry, &ts.mb, &ts.stackErr)
	}

	c.Section(sectCoreData)
	c.U16s(m.rm[:])
	c.U16s(m.stack[:])
	c.U8(&m.stackPtr)
	c.U16(&m.count)
	c.U16(&m.q)
	c.U8(&m.rbase)
	c.U8(&m.membase)
	c.U16(&m.shiftCtl)
	for i := range m.alufm {
		v := microcode.EncodeALUCtl(m.alufm[i])
		if c.U8(&v); c.Decoded() {
			m.alufm[i] = microcode.DecodeALUCtl(v)
		}
	}
	c.U16(&m.cpreg)
	p := &m.pend
	c.Bool(&p.valid)
	c.Bool(&p.toT)
	c.Int(&p.task, NumTasks)
	c.Bool(&p.toRM)
	c.U8(&p.rmIndex)
	c.Bool(&p.toStack)
	c.U8(&p.stIndex)
	c.U16(&p.val)

	c.Section(sectCoreStats)
	st := &m.stats
	for _, p := range [...]*uint64{&st.Cycles, &st.Executed, &st.Holds, &st.HoldMD, &st.HoldMem,
		&st.HoldIFU, &st.TaskSwitches, &st.Blocks, &st.Preemptions, &st.BranchStalls} {
		c.U64(p)
	}
	for i := range st.TaskCycles {
		c.U64(&st.TaskCycles[i])
	}
	for i := range st.TaskExecuted {
		c.U64(&st.TaskExecuted[i])
	}

	c.Section(sectCoreStore)
	m.codeStore(c)

	m.mem.State(c)
	m.ifu.State(c)

	c.Section(sectCoreDevs)
	n := uint8(len(m.att))
	if c.U8(&n); int(n) != len(m.att) {
		c.Fail(fmt.Errorf("core: snapshot has %d devices, machine has %d attached", n, len(m.att)))
	}
	for i := range m.att {
		ad := &m.att[i]
		task := uint8(ad.task)
		if c.U8(&task); int(task) != ad.task {
			c.Fail(fmt.Errorf("core: snapshot device #%d is on task %d, machine's on task %d", i, task, ad.task))
		}
		ad.dev.State(c)
	}
}

// codeAddr codes a microaddress; decoding refuses one past the microstore.
func codeAddr(c *state.Codec, p *microcode.Addr) {
	v := uint16(*p)
	if c.U16(&v); v > microcode.AddrMask {
		c.Fail(fmt.Errorf("core: snapshot microaddress %#04x is past the microstore", v))
	} else if c.Decoded() {
		*p = microcode.Addr(v)
	}
}

// codeStore codes the microstore as its words' coding, a U64 per word,
// written in one copy. Decoding compares the run with the machine's store
// and then with every shared one, and points the machine at the one that
// holds it. Any other run is written into a store of the machine's own:
// each word that differs from the one stored is decoded, refused if
// microcode.Word.Validate rejects it, and installed.
func (m *Machine) codeStore(c *state.Codec) {
	run := c.U64s(m.im.enc[:])
	if !c.Decoded() || bytes.Equal(run, m.im.enc[:]) {
		return
	}
	for _, s := range sharedStores() {
		if bytes.Equal(run, s.enc[:]) {
			m.im = s
			return
		}
	}
	s := m.own()
	for a := range s.word {
		v := binary.LittleEndian.Uint64(run[8*a:])
		if v == binary.LittleEndian.Uint64(s.enc[8*a:]) {
			continue
		}
		w := microcode.Decode(v)
		if err := w.Validate(); err != nil {
			c.Fail(fmt.Errorf("core: snapshot microstore word %v: %w", microcode.Addr(a), err))
			return
		}
		s.set(microcode.Addr(a), w)
	}
}
