package ifu

import (
	"bytes"
	"testing"
	"unsafe"

	"dorado/internal/memory"
	"dorado/internal/microcode"
	"dorado/internal/state"
)

// loadBytes writes a byte stream into memory at word VA base.
func loadBytes(m *memory.System, base uint32, bs []byte) {
	for i := 0; i+1 < len(bs); i += 2 {
		m.Poke(base+uint32(i/2), uint16(bs[i])<<8|uint16(bs[i+1]))
	}
	if len(bs)%2 == 1 {
		m.Poke(base+uint32(len(bs)/2), uint16(bs[len(bs)-1])<<8)
	}
}

func newUnit(t *testing.T, bs []byte) *Unit {
	t.Helper()
	m, err := memory.New(memory.Config{})
	if err != nil {
		t.Fatal(err)
	}
	loadBytes(m, 0x1000, bs)
	u := New(m)
	u.SetCodeBase(0x1000)
	return u
}

// run ticks the unit until DispatchReady or the deadline.
func waitReady(t *testing.T, u *Unit, from uint64, deadline uint64) uint64 {
	t.Helper()
	for now := from; now < deadline; now++ {
		u.Tick(now)
		if u.DispatchReady(now) {
			return now
		}
	}
	t.Fatalf("dispatch never ready by cycle %d", deadline)
	return 0
}

func TestDispatchSimpleOpcode(t *testing.T) {
	u := newUnit(t, []byte{0x10, 0x10, 0x10})
	if err := u.SetEntry(0x10, Entry{Handler: 0x123, Name: "NOP"}); err != nil {
		t.Fatal(err)
	}
	u.Reset(0, 0)
	now := waitReady(t, u, 0, 100)
	if h, _ := u.Dispatch(now); h != 0x123 {
		t.Fatalf("handler = %v", h)
	}
	if u.PC() != 1 {
		t.Errorf("PC = %d after 1-byte dispatch", u.PC())
	}
}

func TestDispatchNotReadyBeforeLatency(t *testing.T) {
	u := newUnit(t, []byte{0x10})
	u.SetEntry(0x10, Entry{Handler: 1})
	u.Reset(0, 100)
	// FetchLatency 2 + DecodeLatency 1: nothing before cycle 103.
	for now := uint64(100); now < 103; now++ {
		u.Tick(now)
		if u.DispatchReady(now) {
			t.Fatalf("ready too early at %d", now)
		}
	}
}

func TestOperandsByteAndWide(t *testing.T) {
	u := newUnit(t, []byte{0x20, 0xAB, 0x30, 0xCD, 0xEF, 0x10})
	u.SetEntry(0x10, Entry{Handler: 1, Name: "zero"})
	u.SetEntry(0x20, Entry{Handler: 2, Operands: 1, Name: "one"})
	u.SetEntry(0x30, Entry{Handler: 3, Operands: 2, Wide: true, Name: "wide"})
	u.Reset(0, 0)

	now := waitReady(t, u, 0, 100)
	if h, _ := u.Dispatch(now); h != 2 {
		t.Fatalf("first handler = %v", h)
	}
	if !u.OperandReady() {
		t.Fatal("operand not ready after dispatch")
	}
	if v := u.Operand(); v != 0x00AB {
		t.Errorf("alpha = %#04x", v)
	}
	if u.OperandReady() {
		t.Error("extra operand after consuming alpha")
	}

	now = waitReady(t, u, now+1, now+100)
	if h, _ := u.Dispatch(now); h != 3 {
		t.Fatalf("second handler = %v", h)
	}
	if v := u.Operand(); v != 0xCDEF {
		t.Errorf("wide operand = %#04x", v)
	}

	now = waitReady(t, u, now+1, now+100)
	if h, _ := u.Dispatch(now); h != 1 {
		t.Fatalf("third handler = %v", h)
	}
	if u.OperandReady() {
		t.Error("zero-operand opcode latched operands")
	}
}

func TestBackToBackDispatchRate(t *testing.T) {
	// With a warm buffer, 1-byte opcodes dispatch every cycle: "a simple
	// macroinstruction in one cycle".
	code := make([]byte, 64)
	for i := range code {
		code[i] = 0x10
	}
	u := newUnit(t, code)
	u.SetEntry(0x10, Entry{Handler: 7})
	u.Reset(0, 0)
	now := waitReady(t, u, 0, 100)
	// Let the buffer fill fully.
	for ; now < 20; now++ {
		u.Tick(now)
	}
	dispatches := 0
	for ; now < 30; now++ {
		u.Tick(now)
		if !u.DispatchReady(now) {
			t.Fatalf("buffer underrun at cycle %d after %d dispatches", now, dispatches)
		}
		u.Dispatch(now)
		dispatches++
	}
	if dispatches != 10 {
		t.Fatalf("dispatched %d in 10 cycles", dispatches)
	}
}

func TestResetPenalty(t *testing.T) {
	u := newUnit(t, []byte{0x10, 0x10, 0x10, 0x10})
	u.SetEntry(0x10, Entry{Handler: 7})
	u.Reset(0, 0)
	first := waitReady(t, u, 0, 100)
	if first < 3 {
		t.Errorf("first dispatch ready at %d; want ≥3 (fetch 2 + decode 1)", first)
	}
	// A jump (Reset) pays the same restart penalty.
	u.Reset(2, 1000)
	again := waitReady(t, u, 1000, 1100)
	if again-1000 < 3 {
		t.Errorf("post-jump dispatch ready after %d cycles; want ≥3", again-1000)
	}
}

func TestIllegalOpcode(t *testing.T) {
	u := newUnit(t, []byte{0x99})
	u.SetIllegal(0xABC)
	u.Reset(0, 0)
	now := waitReady(t, u, 0, 100)
	if h, _ := u.Dispatch(now); h != 0xABC {
		t.Fatalf("illegal handler = %v", h)
	}
}

func TestIllegalWithoutHandlerNeverReady(t *testing.T) {
	u := newUnit(t, []byte{0x99})
	u.Reset(0, 0)
	for now := uint64(0); now < 50; now++ {
		u.Tick(now)
		if u.DispatchReady(now) {
			t.Fatal("invalid opcode became ready without an Illegal handler")
		}
	}
}

func TestOddByteAlignment(t *testing.T) {
	// Jumping to an odd byte offset must fetch the low half of the word.
	u := newUnit(t, []byte{0x10, 0x20, 0xAB})
	u.SetEntry(0x20, Entry{Handler: 5, Operands: 1})
	u.Reset(1, 0)
	now := waitReady(t, u, 0, 100)
	if h, _ := u.Dispatch(now); h != 5 {
		t.Fatalf("handler = %v", h)
	}
	if v := u.Operand(); v != 0xAB {
		t.Errorf("operand = %#02x", v)
	}
}

func TestSetEntryValidation(t *testing.T) {
	u := newUnit(t, nil)
	if err := u.SetEntry(1, Entry{Operands: 3}); err == nil {
		t.Error("want error for 3 operands")
	}
	if err := u.SetEntry(1, Entry{Operands: 1, Wide: true}); err == nil {
		t.Error("want error for Wide with 1 operand")
	}
}

func TestStats(t *testing.T) {
	u := newUnit(t, []byte{0x20, 0x01, 0x20, 0x02})
	u.SetEntry(0x20, Entry{Handler: 1, Operands: 1})
	u.Reset(0, 0)
	now := waitReady(t, u, 0, 100)
	u.Dispatch(now)
	now = waitReady(t, u, now+1, now+100)
	u.Dispatch(now)
	st := u.Stats()
	if st.Dispatches != 2 || st.BytesRead != 4 || st.Resets != 1 {
		t.Errorf("stats = %+v", st)
	}
}

func TestLastEntryAndMemBase(t *testing.T) {
	u := newUnit(t, []byte{0x11, 0x10})
	u.SetEntry(0x10, Entry{Handler: 1, Name: "PLAIN"})
	u.SetEntry(0x11, Entry{Handler: 2, Name: "MB", LoadMemBase: true, MemBase: 7})
	u.Reset(0, 0)
	now := waitReady(t, u, 0, 100)
	if _, mb := u.Dispatch(now); mb != 7 {
		t.Fatalf("Dispatch MEMBASE = %d, want 7", mb)
	}
	if e := u.LastEntry(); !e.LoadMemBase || e.MemBase != 7 || e.Name != "MB" {
		t.Fatalf("LastEntry = %+v", e)
	}
	now = waitReady(t, u, now+1, now+100)
	if _, mb := u.Dispatch(now); mb != -1 {
		t.Fatalf("Dispatch MEMBASE = %d for an opcode that loads none", mb)
	}
	if e := u.LastEntry(); e.LoadMemBase {
		t.Fatalf("LastEntry did not update: %+v", e)
	}
}

func TestPeekOperandDoesNotConsume(t *testing.T) {
	u := newUnit(t, []byte{0x20, 0x55})
	u.SetEntry(0x20, Entry{Handler: 1, Operands: 1})
	u.Reset(0, 0)
	now := waitReady(t, u, 0, 100)
	u.Dispatch(now)
	if u.PeekOperand() != 0x55 || u.PeekOperand() != 0x55 {
		t.Fatal("peek consumed or returned wrong value")
	}
	if u.Operand() != 0x55 {
		t.Fatal("operand after peek")
	}
	defer func() {
		if recover() == nil {
			t.Fatal("PeekOperand on empty should panic (simulator-usage bug)")
		}
	}()
	u.PeekOperand()
}

// TestLoadStateRejectsImpossibleState: a snapshot whose operand latch
// runs past its two slots, or whose decode rows or Illegal handler no
// SetEntry or SetIllegal could install, is refused; the same unit's own
// snapshot restores.
func TestLoadStateRejectsImpossibleState(t *testing.T) {
	for i, spoil := range []func(u *Unit){
		func(u *Unit) {},
		func(u *Unit) { u.opHead = 3 },
		func(u *Unit) { u.opLen = 3 },
		func(u *Unit) { u.own().rows[7] = Entry{Valid: true, Operands: 5} },
		func(u *Unit) { u.own().rows[7] = Entry{Valid: true, Operands: 1, Wide: true} },
		func(u *Unit) { u.own().rows[7] = Entry{Valid: true, Handler: microcode.StoreSize} },
		func(u *Unit) { u.own().illegal = microcode.StoreSize },
	} {
		u := newUnit(t, []byte{0x10})
		spoil(u)
		e := state.Encode(0)
		u.State(e)
		d, err := state.Decode(e.Bytes())
		if err != nil {
			t.Fatal(err)
		}
		newUnit(t, nil).State(d)
		if err, ok := d.Finish(), i == 0; (err == nil) != ok {
			t.Errorf("case %d: restoring State: error %v", i, err)
		}
	}
}

// TestSharedTable: NewTable returns one table per content and refuses a
// row SetEntry refuses; a unit that installs it points at it, and its
// first change (a new row, an Illegal handler) copies it, leaving the
// shared table as built. A unit restored from a snapshot that holds a
// shared table's rows points at that table; a snapshot whose rows or
// Illegal handler differ restores into a table of the unit's own with
// the same bytes.
func TestSharedTable(t *testing.T) {
	var rows [256]Entry
	rows[0x10] = Entry{Valid: true, Handler: 0x40, Name: "NOP"}
	rows[0x11] = Entry{Valid: true, Handler: 0x41, Operands: 2, Wide: true, Name: "LIW"}
	rows[0x12] = Entry{Handler: 0x42, Name: "not valid"}
	tab, err := NewTable(&rows)
	if err != nil {
		t.Fatal(err)
	}
	if again, err := NewTable(&rows); err != nil || again != tab {
		t.Fatalf("NewTable of the same rows = %p, %v; want %p", again, err, tab)
	}
	if tab.rows[0x12] != (Entry{}) {
		t.Fatal("an invalid row was installed")
	}
	bad := rows
	bad[0x13] = Entry{Valid: true, Operands: 1, Wide: true}
	if _, err := NewTable(&bad); err == nil {
		t.Fatal("NewTable installed a row SetEntry refuses")
	}

	snap := func(u *Unit) []byte {
		e := state.Encode(0)
		u.State(e)
		return e.Bytes()
	}
	restore := func(b []byte) *Unit {
		d, err := state.Decode(b)
		if err != nil {
			t.Fatal(err)
		}
		u := newUnit(t, nil)
		if u.State(d); d.Finish() != nil {
			t.Fatal(d.Finish())
		}
		if !bytes.Equal(snap(u), b) {
			t.Fatal("restored unit's snapshot differs")
		}
		return u
	}
	u := newUnit(t, []byte{0x11, 0xAB, 0xCD, 0x10})
	u.SetTable(tab)
	u.Reset(0, 0)
	now := waitReady(t, u, 0, 100)
	if h, _ := u.Dispatch(now); h != 0x41 || u.Operand() != 0xABCD {
		t.Fatalf("dispatch through the shared table = %v", h)
	}
	if restore(snap(u)).tab != tab {
		t.Fatal("a snapshot holding the shared rows did not restore onto the shared table")
	}
	if err := u.SetEntry(0x10, rows[0x10]); err != nil || u.tab != tab {
		t.Fatalf("reinstalling a row the table holds copied it (%v)", err)
	}
	for _, change := range []func(u *Unit){
		func(u *Unit) { u.SetEntry(0x10, Entry{Handler: 0x50, Name: "NOP2"}) },
		func(u *Unit) { u.SetIllegal(0x60) },
	} {
		v := newUnit(t, nil)
		v.SetTable(tab)
		change(v)
		if v.tab == tab || v.tab.shared {
			t.Fatal("a change wrote the shared table")
		}
		if got := restore(snap(v)).tab; got == tab || got.shared {
			t.Fatal("a snapshot of changed rows restored onto the shared table")
		}
	}
	if err := CheckTables(); err != nil {
		t.Fatal(err)
	}
	if u.SetTable(emptyTable); u.tab != emptyTable || u.tab.slots != ([256]slot{}) {
		t.Fatal("the empty table is not empty")
	}
}

// TestUnitFillsCacheLines: a Unit's size is a whole number of 64-byte
// cache lines, so the units of two machines, which sit side by side in
// one allocation size class, share no line. Both are written nearly every
// cycle, and machines run at once on different cores.
func TestUnitFillsCacheLines(t *testing.T) {
	if n := unsafe.Sizeof(Unit{}); n%64 != 0 {
		t.Errorf("a Unit is %d bytes, not a whole number of 64-byte lines: pad it, or reorder its fields", n)
	}
}
