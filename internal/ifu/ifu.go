// Package ifu models the Dorado instruction fetch unit (described in the
// companion report: Lampson et al., "An instruction fetch unit for a
// high-performance personal computer").
//
// The IFU fetches the macroinstruction byte stream, decodes opcodes and
// operands using a writable decode table, and presents two things to the
// processor (§5.8 of the processor paper):
//
//   - the handler microaddress for the next macroinstruction, consumed by
//     the IFUJUMP NextControl: "any microinstruction can specify that it is
//     the last of a macroinstruction, in which case the successor address
//     is supplied by the IFU";
//   - operand bytes on the IFUDATA bus: "as each operand is used, the IFU
//     provides the next one on IFUDATA".
//
// When the IFU has not finished decoding (after a jump, or when its
// prefetcher falls behind), an IFUJUMP or IFUDATA use is held, exactly like
// a memory Hold (§5.7).
//
// Timing model: the IFU owns a cache port that delivers one word (two
// bytes) per cycle into a small byte buffer after a fixed startup latency.
// A macroinstruction can dispatch when all its bytes are buffered and one
// decode cycle has passed, which sustains back-to-back one-cycle simple
// opcodes (the paper's headline "executes a simple macroinstruction in one
// cycle") while charging a restart penalty after jumps.
package ifu

import (
	"fmt"

	"dorado/internal/memory"
	"dorado/internal/microcode"
)

// Entry is one decode-table row: how the IFU handles one opcode byte.
type Entry struct {
	// Valid marks the opcode as implemented; dispatching an invalid opcode
	// returns the table's Illegal handler.
	Valid bool
	// Handler is the microstore address of the opcode's emulator microcode.
	Handler microcode.Addr
	// Operands is the number of operand bytes following the opcode (0..2).
	Operands int
	// Wide presents two operand bytes as one 16-bit IFUDATA value
	// (alpha<<8 | beta) in a single read instead of two byte reads.
	Wide bool
	// LoadMemBase, when set, makes the dispatch load the processor's
	// MEMBASE register with MemBase — §6.3.3: MEMBASE "can be loaded from
	// the IFU at the start of a macroinstruction".
	LoadMemBase bool
	// MemBase is the MEMBASE value for LoadMemBase (0..31).
	MemBase uint8
	// Name labels the opcode in traces and errors.
	Name string
}

// Config sizes the IFU timing model.
type Config struct {
	// FetchLatency is the startup delay, in cycles, before the first word
	// of a refill arrives (default 2 — a cache hit).
	FetchLatency int
	// BufferBytes is the prefetch buffer capacity (default 8, enough to
	// cover decode of the longest instruction plus prefetch slack).
	BufferBytes int
	// DecodeLatency is the pipeline delay, in cycles, between the bytes of
	// an instruction arriving and its dispatch being ready (default 1).
	DecodeLatency int
}

func (c Config) withDefaults() Config {
	if c.FetchLatency == 0 {
		c.FetchLatency = 2
	}
	if c.BufferBytes == 0 {
		c.BufferBytes = 8
	}
	if c.DecodeLatency == 0 {
		c.DecodeLatency = 1
	}
	return c
}

// Stats counts IFU activity.
type Stats struct {
	Dispatches uint64 // macroinstructions dispatched
	Resets     uint64 // jumps/restarts
	BytesRead  uint64 // bytes consumed from the stream
	WordsFetch uint64 // words prefetched from memory
}

// Unit is the instruction fetch unit.
type Unit struct {
	cfg   Config
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

// New builds an IFU reading code through mem.
func New(mem *memory.System, cfg Config) *Unit {
	return &Unit{cfg: cfg.withDefaults(), mem: mem}
}

// SetEntry installs a decode-table row for opcode op.
func (u *Unit) SetEntry(op uint8, e Entry) error {
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
func (u *Unit) ResetTable() {
	u.table = [256]Entry{}
	u.hasIll = false
	u.Illegal = 0
}

// SetIllegal installs the handler for invalid opcodes.
func (u *Unit) SetIllegal(h microcode.Addr) {
	u.Illegal = h
	u.hasIll = true
}

// SetCodeBase points the IFU at the word VA holding byte 0 of the
// macroprogram. Byte n lives in the high (even n) or low (odd n) half of
// word codeBase+n/2.
func (u *Unit) SetCodeBase(va uint32) { u.codeBase = va }

// Stats returns a snapshot of the counters.
func (u *Unit) Stats() Stats { return u.stats }

// PC returns the byte offset of the next macroinstruction to dispatch.
func (u *Unit) PC() uint32 { return u.headPC }

// Running reports whether the IFU is fetching — a Reset has started it and
// nothing has stopped it since. A stopped IFU's Tick is a no-op.
func (u *Unit) Running() bool { return u.running }

// Reset restarts the IFU at byte offset pc (the FF IFUReset operation; B
// carries the 16-bit target). The buffer refills from scratch, modeling the
// macro-jump penalty.
func (u *Unit) Reset(pc uint16, now uint64) {
	u.bytePC = uint32(pc)
	u.headPC = uint32(pc)
	if cap(u.buf) < u.cfg.BufferBytes {
		// Full capacity up front: with the copy-down in Dispatch, the
		// buffer never reallocates again, keeping Step allocation-free.
		u.buf = make([]byte, 0, u.cfg.BufferBytes)
	}
	u.buf = u.buf[:0]
	u.opHead, u.opLen = 0, 0
	u.readyAt = now + uint64(u.cfg.FetchLatency)
	u.running = true
	u.stats.Resets++
}

// Tick advances the prefetcher one cycle: after the startup latency, one
// word (two bytes) arrives per cycle until the buffer is full.
func (u *Unit) Tick(now uint64) {
	if !u.running || len(u.buf)+2 > u.cfg.BufferBytes || now < u.readyAt {
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
func (u *Unit) IdleUntil(now uint64) uint64 {
	if !u.running || len(u.buf)+2 > u.cfg.BufferBytes {
		return ^uint64(0)
	}
	return max(u.readyAt, now)
}

// peekEntry returns the decode entry for the buffered opcode. An invalid
// opcode with no Illegal handler never becomes ready (the machine holds
// until its cycle limit; set an Illegal handler in real microcode).
func (u *Unit) peekEntry() (Entry, bool) {
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
func (u *Unit) DispatchReady(now uint64) bool {
	if !u.running || now < u.readyAt+uint64(u.cfg.DecodeLatency) {
		return false
	}
	_, ok := u.peekEntry()
	return ok
}

// Dispatch consumes the next macroinstruction: it returns the handler
// address and latches the instruction's operands for IFUDATA. Call only
// when DispatchReady. The full decode entry is available from LastEntry
// (the processor applies LoadMemBase from it).
func (u *Unit) Dispatch(now uint64) microcode.Addr {
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
func (u *Unit) PeekOperand() uint16 {
	if u.opHead >= u.opLen {
		panic("ifu: PeekOperand with no operand")
	}
	return u.ops[u.opHead]
}

// LastEntry returns the decode entry of the most recent Dispatch.
func (u *Unit) LastEntry() Entry { return u.last }

// OperandReady reports whether an IFUDATA read can complete: dispatch has
// latched at least one unconsumed operand. Operands are buffered with the
// instruction, so they are ready as soon as it dispatches.
func (u *Unit) OperandReady() bool { return u.opHead < u.opLen }

// Operand consumes the next operand ("as each operand is used, the IFU
// provides the next one", §6.3.2). Call only when OperandReady.
func (u *Unit) Operand() uint16 {
	if u.opHead >= u.opLen {
		panic("ifu: IFUDATA read with no operand (processor must Hold)")
	}
	v := u.ops[u.opHead]
	u.opHead++
	return v
}
