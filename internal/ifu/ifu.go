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
	"bytes"
	"fmt"
	"sync"
	"sync/atomic"

	"dorado/internal/memory"
	"dorado/internal/microcode"
	"dorado/internal/state"
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

// The IFU's timing model.
const (
	// fetchLatency is the startup delay, in cycles, before the first word
	// of a refill arrives (a cache hit).
	fetchLatency = 2
	// bufferBytes is the prefetch buffer capacity: enough to cover decode
	// of the longest instruction plus prefetch slack.
	bufferBytes = 8
	// decodeLatency is the pipeline delay, in cycles, between the bytes of
	// an instruction arriving and its dispatch being ready.
	decodeLatency = 1
)

// Stats counts IFU activity.
type Stats struct {
	Dispatches uint64 // macroinstructions dispatched
	Resets     uint64 // jumps/restarts
	BytesRead  uint64 // bytes consumed from the stream
	WordsFetch uint64 // words prefetched from memory
}

// never is the horizon of an event that no amount of waiting brings: only
// a Reset, a Dispatch or a table change can.
const never = ^uint64(0)

// noLast marks Unit.last as holding the most recent dispatch's entry.
const noLast = -1

// slot is the decode table compiled for dispatch: what the processor needs
// of one opcode, with an invalid opcode already resolved to the Illegal
// handler, or to never dispatching when there is none.
type slot struct {
	handler microcode.Addr
	n       uint8 // instruction bytes, opcode included; 0: never dispatches
	wide    bool
	loadMB  bool
	memBase uint8
}

// Table is a decode table compiled for dispatch: the rows, the Illegal
// handler, and each opcode's dispatch slot, which mirrors its row (and
// the Illegal handler). A shared table (NewTable) is immutable: every
// unit that installs it points at it, and copies it into a table of its
// own at its first change (own), as storage pages are copied at their
// first store.
type Table struct {
	rows    [256]Entry
	slots   [256]slot
	illegal microcode.Addr
	hasIll  bool

	// A shared table also keeps its rows as State codes them, so a
	// snapshot writes them in one copy and a restore recognizes them with
	// one compare.
	shared bool
	enc    []byte
}

// compile rebuilds opcode op's dispatch slot from its row.
func (t *Table) compile(op uint8) {
	e := &t.rows[op]
	switch {
	case e.Valid:
		t.slots[op] = slot{handler: e.Handler, n: uint8(1 + e.Operands), wide: e.Wide, loadMB: e.LoadMemBase, memBase: e.MemBase}
	case t.hasIll:
		t.slots[op] = slot{handler: t.illegal, n: 1}
	default:
		t.slots[op] = slot{}
	}
}

// compileAll rebuilds every slot.
func (t *Table) compileAll() {
	for op := range t.slots {
		t.compile(uint8(op))
	}
}

// check reports whether e is a row SetEntry installs.
func check(op uint8, e Entry) error {
	if e.Operands < 0 || e.Operands > 2 {
		return fmt.Errorf("ifu: opcode %#02x: %d operand bytes (max 2)", op, e.Operands)
	}
	if e.Wide && e.Operands != 2 {
		return fmt.Errorf("ifu: opcode %#02x: Wide requires 2 operand bytes", op)
	}
	return nil
}

// tables holds every shared table, the empty one first, so a restoring
// State finds one by its rows. Only NewTable adds to it, and it adds
// only a table whose rows none of them holds.
var (
	tables   atomic.Pointer[[]*Table]
	tablesMu sync.Mutex
)

// emptyTable is the table of a unit that no row has been installed in:
// every opcode invalid, and no Illegal handler. NewTable refuses only a
// valid row, and it has none.
var emptyTable, _ = NewTable(&[256]Entry{})

// NewTable returns the shared decode table whose valid rows are rows'
// (each installed as SetEntry installs it, the others invalid) and that
// has no Illegal handler, building it the first time those rows are
// asked for: a process holds one table per content. It refuses a row
// SetEntry would refuse. Nothing may write a shared table.
func NewTable(rows *[256]Entry) (*Table, error) {
	t := &Table{shared: true}
	for op, e := range rows {
		if !e.Valid {
			continue
		}
		if err := check(uint8(op), e); err != nil {
			return nil, err
		}
		t.rows[op] = e
	}
	t.compileAll()
	t.enc = t.coded()

	tablesMu.Lock()
	defer tablesMu.Unlock()
	var list []*Table
	if p := tables.Load(); p != nil {
		list = *p
	}
	for _, s := range list {
		if bytes.Equal(s.enc, t.enc) {
			return s, nil
		}
	}
	list = append(list[:len(list):len(list)], t)
	tables.Store(&list)
	return t, nil
}

// sharedTables returns every shared table.
func sharedTables() []*Table { return *tables.Load() }

// coded returns t's rows as State codes them.
func (t *Table) coded() []byte {
	c := state.Encode(0)
	c.Section(sectIFUState)
	for i := range t.rows {
		codeEntry(c, &t.rows[i])
	}
	doc, _ := state.Split(c.Bytes()) // the codec framed the document it returns
	return doc.Sections[0].Body
}

// CheckTables reports a shared table that something wrote: one whose
// rows no longer code as they did when it was built, or whose slots or
// Illegal handler no longer follow from its rows. Nothing may write a
// shared table; test suites call it once they have run.
func CheckTables() error {
	for _, t := range sharedTables() {
		want := *t
		want.compileAll()
		if !bytes.Equal(t.coded(), t.enc) || want.slots != t.slots || t.hasIll || t.illegal != 0 {
			return fmt.Errorf("ifu: a shared decode table was written (its %d bytes of rows no longer code as built)", len(t.enc))
		}
	}
	return nil
}

// Unit is the instruction fetch unit. It decodes each opcode once, when
// its table row is installed, into a dispatch slot, and keeps two event
// horizons current as its buffer and table change: the next cycle whose
// Tick fetches and the cycle the head instruction can dispatch. Tick and
// DispatchReady are then one compare each, as the hardware's separate
// decode stage makes them (§5.8).
//
// A Unit is written nearly every cycle, and the units of machines built
// one after another sit side by side in one allocation size class, so its
// size is a whole number of 64-byte cache lines (TestUnitFillsCacheLines):
// a unit that shared a line with its neighbour made two Mesa machines
// running at once on two cores take 1.7 to 2.0 times as long as one.
type Unit struct {
	mem *memory.System
	// tab is the decode table: a shared one (the empty table from New
	// on, or one SetTable installed) until the unit's first change gives
	// it one of its own (own).
	tab *Table

	codeBase uint32 // word VA of byte 0 of the code segment

	bytePC uint32 // byte offset of the next *unbuffered* byte (prefetch head)
	// buf holds the prefetched bytes; buf[0] is at stream position headPC.
	// Its backing array is bufMem, in the unit itself, and Dispatch copies
	// down rather than re-slicing, so the prefetcher's appends never
	// reallocate and Step stays allocation-free.
	buf     []byte
	bufMem  [bufferBytes]byte
	headPC  uint32 // byte offset of buf[0]
	readyAt uint64 // cycle at which buffered bytes become usable (refill/decode latency)

	// fetchAt is the first cycle whose Tick fetches (never while stopped
	// or full); dispatchAt is the first cycle the head instruction can
	// dispatch (never until all its bytes are buffered).
	fetchAt    uint64
	dispatchAt uint64

	// Current (dispatched) instruction's pending operands. A fixed array
	// (instructions carry at most one wide or two byte operands) so the
	// dispatch/consume cycle never allocates.
	ops    [2]uint16
	opHead uint8 // next operand to deliver
	opLen  uint8 // operands latched by the current instruction
	// The most recently dispatched entry, built lazily: Dispatch records
	// only the opcode in lastOp, and LastEntry reads its row from the
	// table. A table change first settles the row into last (lastOp =
	// noLast), so it stays the entry as dispatched.
	last   Entry
	lastOp int

	running bool
	stats   Stats

	_ [8]byte // to 192 bytes, three cache lines
}

// New builds an IFU reading code through mem.
func New(mem *memory.System) *Unit {
	u := &Unit{mem: mem, tab: emptyTable, fetchAt: never, dispatchAt: never, lastOp: noLast}
	u.buf = u.bufMem[:0]
	return u
}

// own returns the unit's decode table for a change, first copying a
// shared table into one of the unit's own.
func (u *Unit) own() *Table {
	if u.tab.shared {
		t := *u.tab
		t.shared, t.enc = false, nil
		u.tab = &t
	}
	return u.tab
}

// SetEntry installs a decode-table row for opcode op. Installing the row
// the table holds changes nothing.
func (u *Unit) SetEntry(op uint8, e Entry) error {
	if err := check(op, e); err != nil {
		return err
	}
	u.settleLast()
	e.Valid = true
	if u.tab.rows[op] != e {
		t := u.own()
		t.rows[op] = e
		t.compile(op)
		u.armDispatch()
	}
	return nil
}

// SetTable installs a shared decode table (NewTable), replacing every
// row and the Illegal handler (rebooting a different emulator on the same
// machine), as a SetEntry per valid row of an empty table would: the unit
// points at the table until its next change.
func (u *Unit) SetTable(t *Table) {
	u.settleLast()
	u.tab = t
	u.armDispatch()
}

// SetIllegal installs the handler for invalid opcodes. Dispatching an
// invalid opcode without one never becomes ready: the machine holds until
// its cycle limit.
func (u *Unit) SetIllegal(h microcode.Addr) {
	u.settleLast()
	t := u.own()
	t.illegal = h
	t.hasIll = true
	t.compileAll()
	u.armDispatch()
}

// armFetch recomputes fetchAt: the refill's first cycle while the unit
// runs with room for a word, never otherwise.
func (u *Unit) armFetch() {
	u.fetchAt = never
	if u.running && len(u.buf)+2 <= bufferBytes {
		u.fetchAt = u.readyAt
	}
}

// armDispatch recomputes dispatchAt from the buffer: the head instruction
// dispatches DecodeLatency cycles after the refill's first word once all
// its bytes are buffered.
func (u *Unit) armDispatch() {
	u.dispatchAt = never
	if u.running && len(u.buf) > 0 {
		if n := u.tab.slots[u.buf[0]].n; n != 0 && len(u.buf) >= int(n) {
			u.dispatchAt = u.readyAt + decodeLatency
		}
	}
}

// SetCodeBase points the IFU at the word VA holding byte 0 of the
// macroprogram. Byte n lives in the high (even n) or low (odd n) half of
// word codeBase+n/2.
func (u *Unit) SetCodeBase(va uint32) { u.codeBase = va }

// Stats returns a snapshot of the counters.
func (u *Unit) Stats() Stats { return u.stats }

// PC returns the byte offset of the next macroinstruction to dispatch.
func (u *Unit) PC() uint32 { return u.headPC }

// Reset restarts the IFU at byte offset pc (the FF IFUReset operation; B
// carries the 16-bit target). The buffer refills from scratch, modeling the
// macro-jump penalty.
func (u *Unit) Reset(pc uint16, now uint64) {
	u.bytePC = uint32(pc)
	u.headPC = uint32(pc)
	u.buf = u.buf[:0]
	u.opHead, u.opLen = 0, 0
	u.readyAt = now + fetchLatency
	u.running = true
	u.stats.Resets++
	u.armFetch()
	u.dispatchAt = never
}

// Tick advances the prefetcher one cycle: after the startup latency, one
// word (two bytes) arrives per cycle until the buffer is full.
func (u *Unit) Tick(now uint64) {
	if now >= u.fetchAt {
		u.fetch()
	}
}

// fetch buffers the word containing bytePC. Byte order within the stream
// is high byte first.
func (u *Unit) fetch() {
	w := u.mem.Peek(u.codeBase + u.bytePC/2)
	if u.bytePC%2 == 0 {
		u.buf = append(u.buf, byte(w>>8), byte(w))
		u.bytePC += 2
	} else {
		u.buf = append(u.buf, byte(w))
		u.bytePC++
	}
	u.stats.WordsFetch++
	if len(u.buf)+2 > bufferBytes {
		u.fetchAt = never
	}
	if u.dispatchAt == never {
		u.armDispatch()
	}
}

// IdleUntil returns the IFU's idle horizon after Tick(now): the first cycle
// whose Tick may fetch, or now when the next one may. Until then Tick
// changes nothing — a stopped unit or a full buffer stays so until the
// processor dispatches or resets, so those report never.
func (u *Unit) IdleUntil(now uint64) uint64 { return max(u.fetchAt, now) }

// DispatchReady reports whether an IFUJUMP can complete at cycle now: the
// next instruction's bytes are buffered and decoded. When false the
// processor holds.
func (u *Unit) DispatchReady(now uint64) bool { return now >= u.dispatchAt }

// Dispatch consumes the next macroinstruction: it returns the handler
// address and the MEMBASE value the dispatch loads (§6.3.3: MEMBASE "can
// be loaded from the IFU at the start of a macroinstruction"), or -1 when
// the opcode loads none, and latches the instruction's operands for
// IFUDATA. Call only when DispatchReady.
func (u *Unit) Dispatch(now uint64) (handler microcode.Addr, memBase int) {
	if u.dispatchAt == never {
		panic("ifu: Dispatch while not ready (processor must Hold)")
	}
	op := u.buf[0]
	s := &u.tab.slots[op]
	n := int(s.n)
	u.opHead = 0
	if s.wide {
		u.ops[0] = uint16(u.buf[1])<<8 | uint16(u.buf[2])
		u.opLen = 1
	} else {
		for i := 1; i < n; i++ {
			u.ops[i-1] = uint16(u.buf[i])
		}
		u.opLen = uint8(n - 1)
	}
	// Copy-down instead of re-slicing: the buffer keeps its backing array,
	// so the prefetcher's appends stay within capacity (no allocation).
	u.buf = u.buf[:copy(u.buf, u.buf[n:])]
	u.headPC += uint32(n)
	u.stats.BytesRead += uint64(n)
	u.stats.Dispatches++
	u.lastOp = int(op)
	u.armFetch()
	u.armDispatch()
	memBase = -1
	if s.loadMB {
		memBase = int(s.memBase)
	}
	return s.handler, memBase
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

// LastEntry returns the decode entry of the most recent Dispatch: the
// opcode's table row, or for an invalid opcode the Illegal handler's
// entry, as they stood when it dispatched.
func (u *Unit) LastEntry() Entry {
	if u.lastOp == noLast {
		return u.last
	}
	e := u.tab.rows[u.lastOp]
	if !e.Valid {
		e = Entry{Valid: true, Handler: u.tab.illegal, Name: "ILLEGAL"}
	}
	return e
}

// settleLast builds the last dispatch's entry before the table changes
// under it.
func (u *Unit) settleLast() {
	u.last = u.LastEntry()
	u.lastOp = noLast
}

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
