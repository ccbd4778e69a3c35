package ifu

import (
	"bytes"
	"math/rand/v2"
	"reflect"
	"testing"

	"dorado/internal/memory"
	"dorado/internal/microcode"
	"dorado/internal/state"
)

// The IFU oracle: the Unit and the reference unit (reference_test.go,
// the IFU as first written) run in lockstep over one seeded stream of
// code bytes, decode tables and processor actions, and must agree on
// everything the processor or a snapshot can see, every cycle. The
// machine-level differentials cannot see a fault here: every execution
// path shares one Unit.

// chooser makes the harness's choices: from data while it lasts (the fuzz
// target's input), then from rng.
type chooser struct {
	data []byte
	rng  *rand.Rand
}

func (c *chooser) intn(n int) int {
	if len(c.data) > 0 {
		b := c.data[0]
		c.data = c.data[1:]
		return int(b) % n
	}
	return c.rng.IntN(n)
}

// one reports true with probability 1/n.
func (c *chooser) one(n int) bool { return c.intn(n) == 0 }

var oracleNames = []string{"", "NOP", "LIB", "CALL", "ILLEGAL"}

// entry makes a random decode-table row, sometimes one SetEntry rejects.
func (c *chooser) entry() Entry {
	e := Entry{
		Handler:     microcode.Addr(c.intn(microcode.StoreSize)),
		Operands:    c.intn(3),
		LoadMemBase: c.one(3),
		MemBase:     uint8(c.intn(256)),
		Name:        oracleNames[c.intn(len(oracleNames))],
	}
	e.Wide = e.Operands == 2 && c.one(2)
	if c.one(40) {
		e.Wide = true // with fewer than 2 operands: rejected
	}
	if c.one(60) {
		e.Operands = 3 // rejected
	}
	return e
}

// oracleTables are shared decode tables (NewTable) that the harness
// installs whole, as an emulator's InstallOn does, where the reference
// clears its table and sets each row. A revive from a snapshot that holds
// one's rows then points the fresh unit at that table.
var oracleTables = func() []*Table {
	c := &chooser{rng: rand.New(rand.NewPCG(7, 0x1F0))}
	var ts []*Table
	for range 3 {
		var rows [256]Entry
		for op := range 256 {
			if e := c.entry(); check(uint8(op), e) == nil && !c.one(4) {
				e.Valid = true
				rows[op] = e
			}
		}
		t, err := NewTable(&rows)
		if err != nil {
			panic(err)
		}
		ts = append(ts, t)
	}
	return ts
}()

// ifuLockstep drives a Unit and a reference unit for cycles cycles and
// returns the reference's counters.
func ifuLockstep(t *testing.T, c *chooser, cycles int) Stats {
	mem, err := memory.New(memory.Config{StorageWords: 1 << 12})
	if err != nil {
		t.Fatal(err)
	}
	u, r := New(mem), newRefUnit(mem)
	// A small opcode alphabet, so most bytes of the stream decode.
	alphabet := 4 + c.intn(253)
	setEntry := func(op uint8) {
		e := c.entry()
		errU, errR := u.SetEntry(op, e), r.SetEntry(op, e)
		if (errU == nil) != (errR == nil) {
			t.Fatalf("SetEntry(%#02x, %+v): unit error %v, reference error %v", op, e, errU, errR)
		}
	}
	install := func() {
		if c.one(3) { // a shared table, installed whole
			tab := oracleTables[c.intn(len(oracleTables))]
			u.SetTable(tab)
			r.ResetTable()
			for op, e := range tab.rows {
				if e.Valid {
					r.SetEntry(uint8(op), e)
				}
			}
			return
		}
		for op := range alphabet {
			if !c.one(4) { // a quarter stay invalid
				setEntry(uint8(op))
			}
		}
	}
	install()
	if c.one(2) {
		h := microcode.Addr(c.intn(microcode.StoreSize))
		u.SetIllegal(h)
		r.SetIllegal(h)
	}
	// Storage is small, so streams run past its end and wrap (map faults).
	codeBase := uint32(c.intn(1 << 12))
	u.SetCodeBase(codeBase)
	r.SetCodeBase(codeBase)
	codeByte := func() uint16 { // mostly opcodes of the alphabet
		if c.one(8) {
			return uint16(c.intn(256))
		}
		return uint16(c.intn(alphabet))
	}
	for i := uint32(0); i < 1<<12; i++ {
		mem.Poke(i, codeByte()<<8|codeByte())
	}
	reset := func(now uint64) {
		pc := uint16(c.intn(1 << 16))
		u.Reset(pc, now)
		r.Reset(pc, now)
	}
	var now uint64
	if c.one(8) {
		now = uint64(c.intn(1 << 16))
	}
	if !c.one(10) {
		reset(now) // else the unit stays stopped until a later Reset
	}
	for cyc := 0; cyc < cycles; cyc, now = cyc+1, now+1 {
		u.Tick(now)
		r.Tick(now)
		compareUnits(t, now, u, r, false)
		if r.DispatchReady(now) && !c.one(4) {
			want := r.Dispatch(now)
			h, mb := u.Dispatch(now)
			wantMB := -1
			if e := r.LastEntry(); e.LoadMemBase {
				wantMB = int(e.MemBase)
			}
			if h != want || mb != wantMB {
				t.Fatalf("cycle %d: Dispatch = %v, MEMBASE %d; reference %v, MEMBASE %d", now, h, mb, want, wantMB)
			}
		}
		for r.OperandReady() && c.one(2) {
			if a, b := u.PeekOperand(), r.PeekOperand(); a != b {
				t.Fatalf("cycle %d: PeekOperand = %#04x, reference %#04x", now, a, b)
			}
			if a, b := u.Operand(), r.Operand(); a != b {
				t.Fatalf("cycle %d: Operand = %#04x, reference %#04x", now, a, b)
			}
		}
		switch c.intn(64) {
		case 0:
			reset(now) // a macro jump: the FF IFUReset of this cycle
		case 1:
			setEntry(uint8(c.intn(alphabet)))
		case 2:
			if c.one(4) { // reboot: usually another emulator's table
				u.SetTable(emptyTable)
				r.ResetTable()
				if !c.one(4) {
					install()
				}
			}
		case 3:
			if c.one(2) {
				h := microcode.Addr(c.intn(microcode.StoreSize))
				u.SetIllegal(h)
				r.SetIllegal(h)
			}
		case 4:
			// Revive a fresh unit from the reference's snapshot.
			e := state.Encode(0)
			r.State(e)
			d, err := state.Decode(e.Bytes())
			if err != nil {
				t.Fatal(err)
			}
			u = New(mem)
			if u.State(d); d.Finish() != nil {
				t.Fatalf("cycle %d: restoring State: %v", now, d.Finish())
			}
		}
		compareUnits(t, now, u, r, true)
	}
	return r.Stats()
}

// compareUnits fails on any difference the processor could see at cycle
// now, and with snap on any difference in the snapshot.
func compareUnits(t *testing.T, now uint64, u *Unit, r *refUnit, snap bool) {
	t.Helper()
	if a, b := u.DispatchReady(now), r.DispatchReady(now); a != b {
		t.Fatalf("cycle %d: DispatchReady = %v, reference %v", now, a, b)
	}
	if a, b := u.IdleUntil(now), r.IdleUntil(now); a != b {
		t.Fatalf("cycle %d: IdleUntil = %d, reference %d", now, a, b)
	}
	if a, b := u.OperandReady(), r.OperandReady(); a != b {
		t.Fatalf("cycle %d: OperandReady = %v, reference %v", now, a, b)
	}
	if a, b := u.PC(), r.PC(); a != b {
		t.Fatalf("cycle %d: PC = %d, reference %d", now, a, b)
	}
	if a, b := u.Stats(), r.Stats(); a != b {
		t.Fatalf("cycle %d: Stats = %+v, reference %+v", now, a, b)
	}
	if a, b := u.LastEntry(), r.LastEntry(); !reflect.DeepEqual(a, b) {
		t.Fatalf("cycle %d: LastEntry = %+v, reference %+v", now, a, b)
	}
	if !snap {
		return
	}
	eu, er := state.Encode(0), state.Encode(0)
	u.State(eu)
	r.State(er)
	if !bytes.Equal(eu.Bytes(), er.Bytes()) {
		t.Fatalf("cycle %d: snapshot bytes differ from the reference's", now)
	}
}

// TestIFUOracle runs the lockstep harness over seeded streams, and checks
// that the streams dispatch often enough to mean something.
func TestIFUOracle(t *testing.T) {
	const seeds, cycles = 64, 1500
	var total Stats
	for seed := range seeds {
		c := &chooser{rng: rand.New(rand.NewPCG(uint64(seed), 0x1F0))}
		st := ifuLockstep(t, c, cycles)
		total.Dispatches += st.Dispatches
		total.Resets += st.Resets
		total.BytesRead += st.BytesRead
		total.WordsFetch += st.WordsFetch
	}
	t.Logf("%d seeds x %d cycles: %+v", seeds, cycles, total)
	if total.Dispatches < seeds*cycles/10 || total.BytesRead < total.Dispatches*3/2 {
		t.Errorf("streams dispatched %d instructions of %d bytes in %d cycles; the harness exercises too little",
			total.Dispatches, total.BytesRead, seeds*cycles)
	}
}

// FuzzIFU is the oracle as a native fuzz target: the input's bytes make
// the harness's first choices (code, table, the first cycles' actions)
// and the seed the rest.
func FuzzIFU(f *testing.F) {
	f.Add(uint64(1), []byte{})
	f.Add(uint64(2), []byte{2, 8, 1})
	f.Add(uint64(3), []byte{0, 0, 0, 255, 255})
	f.Fuzz(func(t *testing.T, seed uint64, data []byte) {
		ifuLockstep(t, &chooser{data: data, rng: rand.New(rand.NewPCG(seed, 0x1F0))}, 500)
	})
}
