package ifu

import (
	"fmt"

	"dorado/internal/memory"
	"dorado/internal/microcode"
	"dorado/internal/state"
)

// This file keeps the IFU as it was before dispatch slots and event
// horizons, unchanged but for its name, the Running accessor nothing
// reads any more, its timing settings (now the Unit's constants) and its
// snapshot encoder's calls (now a Codec's), as the oracle the lockstep
// test (oracle_test.go) drives the Unit against. Nothing outside the
// tests uses it.

// refUnit is the instruction fetch unit as first written: it decodes the
// head instruction from the full table on every DispatchReady, Dispatch
// and peek, and tests Tick's conditions on every cycle.
type refUnit struct {
	mem   *memory.System
	table [256]Entry
	// Illegal is the handler used for invalid opcodes (set it before
	// running; dispatching an invalid opcode without it is an error and
	// halts decode).
	Illegal microcode.Addr
	hasIll  bool

	codeBase uint32 // word VA of byte 0 of the code segment

	bytePC  uint32 // byte offset of the next *unbuffered* byte (prefetch head)
	buf     []byte // prefetched bytes; buf[0] is at stream position headPC
	headPC  uint32 // byte offset of buf[0]
	readyAt uint64 // cycle at which buffered bytes become usable (refill/decode latency)

	// Current (dispatched) instruction's pending operands. A fixed array
	// (instructions carry at most one wide or two byte operands) so the
	// dispatch/consume cycle never allocates.
	ops    [2]uint16
	opHead uint8 // next operand to deliver
	opLen  uint8 // operands latched by the current instruction
	last   Entry // most recently dispatched entry

	running bool
	stats   Stats
}

// newRefUnit builds a reference IFU reading code through mem.
func newRefUnit(mem *memory.System) *refUnit {
	return &refUnit{mem: mem}
}

// SetEntry installs a decode-table row for opcode op.
func (u *refUnit) SetEntry(op uint8, e Entry) error {
	if e.Operands < 0 || e.Operands > 2 {
		return fmt.Errorf("ifu: opcode %#02x: %d operand bytes (max 2)", op, e.Operands)
	}
	if e.Wide && e.Operands != 2 {
		return fmt.Errorf("ifu: opcode %#02x: Wide requires 2 operand bytes", op)
	}
	e.Valid = true
	u.table[op] = e
	return nil
}

// ResetTable clears every decode entry and the Illegal handler (rebooting
// a different emulator on the same machine).
func (u *refUnit) ResetTable() {
	u.table = [256]Entry{}
	u.hasIll = false
	u.Illegal = 0
}

// SetIllegal installs the handler for invalid opcodes.
func (u *refUnit) SetIllegal(h microcode.Addr) {
	u.Illegal = h
	u.hasIll = true
}

// SetCodeBase points the IFU at the word VA holding byte 0 of the
// macroprogram. Byte n lives in the high (even n) or low (odd n) half of
// word codeBase+n/2.
func (u *refUnit) SetCodeBase(va uint32) { u.codeBase = va }

// Stats returns a snapshot of the counters.
func (u *refUnit) Stats() Stats { return u.stats }

// PC returns the byte offset of the next macroinstruction to dispatch.
func (u *refUnit) PC() uint32 { return u.headPC }

// Reset restarts the IFU at byte offset pc (the FF IFUReset operation; B
// carries the 16-bit target). The buffer refills from scratch, modeling the
// macro-jump penalty.
func (u *refUnit) Reset(pc uint16, now uint64) {
	u.bytePC = uint32(pc)
	u.headPC = uint32(pc)
	if cap(u.buf) < bufferBytes {
		// Full capacity up front: with the copy-down in Dispatch, the
		// buffer never reallocates again, keeping Step allocation-free.
		u.buf = make([]byte, 0, bufferBytes)
	}
	u.buf = u.buf[:0]
	u.opHead, u.opLen = 0, 0
	u.readyAt = now + fetchLatency
	u.running = true
	u.stats.Resets++
}

// Tick advances the prefetcher one cycle: after the startup latency, one
// word (two bytes) arrives per cycle until the buffer is full.
func (u *refUnit) Tick(now uint64) {
	if !u.running || len(u.buf)+2 > bufferBytes || now < u.readyAt {
		return
	}
	// Fetch the word containing bytePC. Byte order within the stream is
	// high byte first.
	w := u.mem.Peek(u.codeBase + u.bytePC/2)
	if u.bytePC%2 == 0 {
		u.buf = append(u.buf, byte(w>>8), byte(w))
		u.bytePC += 2
	} else {
		u.buf = append(u.buf, byte(w))
		u.bytePC++
	}
	u.stats.WordsFetch++
}

// IdleUntil returns the IFU's idle horizon after Tick(now): the first cycle
// whose Tick may fetch, or now when the next one may. Until then Tick
// changes nothing — a stopped unit or a full buffer stays so until the
// processor dispatches or resets, so those report never.
func (u *refUnit) IdleUntil(now uint64) uint64 {
	if !u.running || len(u.buf)+2 > bufferBytes {
		return ^uint64(0)
	}
	return max(u.readyAt, now)
}

// peekEntry returns the decode entry for the buffered opcode. An invalid
// opcode with no Illegal handler never becomes ready (the machine holds
// until its cycle limit; set an Illegal handler in real microcode).
func (u *refUnit) peekEntry() (Entry, bool) {
	if len(u.buf) == 0 {
		return Entry{}, false
	}
	e := u.table[u.buf[0]]
	if !e.Valid {
		if !u.hasIll {
			return Entry{}, false
		}
		e = Entry{Valid: true, Handler: u.Illegal, Name: "ILLEGAL"}
	}
	if len(u.buf) < 1+e.Operands {
		return Entry{}, false
	}
	return e, true
}

// DispatchReady reports whether an IFUJUMP can complete at cycle now: the
// next instruction's bytes are buffered and decoded. When false the
// processor holds.
func (u *refUnit) DispatchReady(now uint64) bool {
	if !u.running || now < u.readyAt+decodeLatency {
		return false
	}
	_, ok := u.peekEntry()
	return ok
}

// Dispatch consumes the next macroinstruction: it returns the handler
// address and latches the instruction's operands for IFUDATA. Call only
// when DispatchReady. The full decode entry is available from LastEntry
// (the processor applies LoadMemBase from it).
func (u *refUnit) Dispatch(now uint64) microcode.Addr {
	e, ok := u.peekEntry()
	if !ok {
		panic("ifu: Dispatch while not ready (processor must Hold)")
	}
	u.last = e
	n := 1 + e.Operands
	u.opHead, u.opLen = 0, 0
	if e.Wide {
		u.ops[0] = uint16(u.buf[1])<<8 | uint16(u.buf[2])
		u.opLen = 1
	} else {
		for i := 0; i < e.Operands; i++ {
			u.ops[i] = uint16(u.buf[1+i])
		}
		u.opLen = uint8(e.Operands)
	}
	// Copy-down instead of re-slicing: the buffer keeps its backing array,
	// so the prefetcher's appends stay within capacity (no allocation).
	u.buf = u.buf[:copy(u.buf, u.buf[n:])]
	u.headPC += uint32(n)
	u.stats.BytesRead += uint64(n)
	u.stats.Dispatches++
	return e.Handler
}

// PeekOperand returns the next operand without consuming it (the processor
// uses it during its hold phase to form a memory address it may not be able
// to issue this cycle). Call only when OperandReady.
func (u *refUnit) PeekOperand() uint16 {
	if u.opHead >= u.opLen {
		panic("ifu: PeekOperand with no operand")
	}
	return u.ops[u.opHead]
}

// LastEntry returns the decode entry of the most recent Dispatch.
func (u *refUnit) LastEntry() Entry { return u.last }

// OperandReady reports whether an IFUDATA read can complete: dispatch has
// latched at least one unconsumed operand. Operands are buffered with the
// instruction, so they are ready as soon as it dispatches.
func (u *refUnit) OperandReady() bool { return u.opHead < u.opLen }

// Operand consumes the next operand ("as each operand is used, the IFU
// provides the next one", §6.3.2). Call only when OperandReady.
func (u *refUnit) Operand() uint16 {
	if u.opHead >= u.opLen {
		panic("ifu: IFUDATA read with no operand (processor must Hold)")
	}
	v := u.ops[u.opHead]
	u.opHead++
	return v
}

// State encodes the IFU's state: configuration fingerprint, decode
// table, prefetch buffer, operand latch, timing, and counters. It is an
// encoder only: the oracle revives the Unit from these bytes.
func (u *refUnit) State(c *state.Codec) {
	c.Section(sectIFUConfig)
	for _, v := range [...]uint32{fetchLatency, bufferBytes, decodeLatency} {
		c.U32(&v)
	}

	c.Section(sectIFUState)
	ill := uint16(u.Illegal)
	c.Bool(&u.hasIll)
	c.U16(&ill)
	c.U32(&u.codeBase)
	c.U32(&u.bytePC)
	c.U32(&u.headPC)
	c.U64(&u.readyAt)
	c.Bool(&u.running)
	c.Bytes32(&u.buf, len(u.buf))
	c.U16(&u.ops[0])
	c.U16(&u.ops[1])
	c.U8(&u.opHead)
	c.U8(&u.opLen)
	refSaveEntry(c, &u.last)
	c.U64(&u.stats.Dispatches)
	c.U64(&u.stats.Resets)
	c.U64(&u.stats.BytesRead)
	c.U64(&u.stats.WordsFetch)
	for i := range u.table {
		refSaveEntry(c, &u.table[i])
	}
}

func refSaveEntry(c *state.Codec, ent *Entry) {
	h, ops := uint16(ent.Handler), uint8(ent.Operands)
	c.Bool(&ent.Valid)
	c.U16(&h)
	c.U8(&ops)
	c.Bool(&ent.Wide)
	c.Bool(&ent.LoadMemBase)
	c.U8(&ent.MemBase)
	c.String(&ent.Name)
}
