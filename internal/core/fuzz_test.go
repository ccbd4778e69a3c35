package core

import (
	"bytes"
	"errors"
	"testing"

	"dorado/internal/memory"
	"dorado/internal/microcode"
)

// fuzzStepMachine builds one side of the predecode differential pair with a
// small memory (snapshots embed all of storage) and nonzero register state,
// so a fuzzed word's reads and writes land somewhere visible. The lines at
// the addresses the registers and the stack top name are resident and
// dirty, and a store miss holds the storage pipe for the first cycles, so
// a fuzzed reference can hit a dirty line, miss while the pipe is busy,
// and miss once it frees.
func fuzzStepMachine(w microcode.Word, reference bool) (*Machine, error) {
	m, err := New(Config{
		Memory:    memory.Config{CacheWords: 256, CacheWays: 2, StorageWords: 4096},
		Reference: reference,
	})
	if err != nil {
		return nil, err
	}
	for i := 0; i < 32; i++ {
		m.SetRM(i, uint16(0x1111*i+7))
		m.SetStack(i, uint16(0x0101*i+3))
	}
	m.SetT(0, 0x1234)
	m.SetCount(5)
	m.SetQ(0xBEEF)
	m.SetStackPtr(0x42)
	m.SetShiftCtl(0x0123)
	mem := m.Mem()
	mem.SetBase(0, 0x100)
	for va := uint32(0); va < 0x200; va++ {
		mem.Poke(va, uint16(0xA000+va))
	}
	store := func(va uint32) {
		if r, _, ok := mem.Admit(0, va, true, 0); ok {
			mem.Write(0, r, mem.Peek(va), 0)
		}
	}
	dirty := func(va uint32) {
		mem.Warm(va)
		store(va) // a hit: dirties the line
	}
	for i := 0; i < 16; i++ {
		dirty(mem.VA(0, m.RM(i)))
	}
	dirty(mem.VA(0, m.Stack(int(m.StackPtr()))))
	store(0xF00) // a miss: the pipe is busy until cycle 8 or 16
	if mem.StorageFreeAt() == 0 {
		return nil, errors.New("fuzzStepMachine: the storage pipe is idle")
	}
	m.SetIM(0, w)
	m.Start(0)
	return m, nil
}

// FuzzPredecode feeds random 34-bit microwords through a few steps of both
// interpreter paths and asserts identical state deltas, using snapshot
// byte-equality as the whole-machine oracle. Words the encoding declares
// invalid are skipped — the predecode contract only covers words real
// microcode (which is validated at assembly/load time) can contain.
func FuzzPredecode(f *testing.F) {
	f.Add(uint64(0))
	f.Add(microcode.Word{ALUOp: uint8(microcode.ALUAplus1), ASel: microcode.ASelT,
		LC: microcode.LCLoadT}.Encode())
	f.Add(microcode.Word{RAddr: 3, ASel: microcode.ASelFetch}.Encode())
	f.Add(microcode.Word{FF: microcode.FFHalt}.Encode())
	f.Add(microcode.Word{BSel: microcode.BSelConstLo, FF: 0x55, LC: microcode.LCLoadRM,
		ALUOp: uint8(microcode.ALUB)}.Encode())
	f.Add(uint64(1)<<34 - 1)
	// A fetch or store whose own FF flushes the dirty line it hits, or
	// moves its base to a line that misses while the pipe is busy: the
	// Hold phase admitted the reference before the FF ran (§5.7).
	for _, ff := range []uint8{microcode.FFFlushCache, microcode.FFPutMemBase, microcode.FFPutBaseLo} {
		for _, a := range []microcode.ASelect{microcode.ASelFetch, microcode.ASelStore} {
			f.Add(microcode.Word{RAddr: 3, ASel: a, BSel: microcode.BSelT, FF: ff}.Encode())
		}
	}
	f.Fuzz(func(t *testing.T, raw uint64) {
		w := microcode.Decode(raw & (1<<34 - 1))
		if w.Validate() != nil {
			t.Skip()
		}
		fast, err := fuzzStepMachine(w, false)
		if err != nil {
			t.Fatal(err)
		}
		ref, err := fuzzStepMachine(w, true)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(fast.Snapshot(), ref.Snapshot()) {
			t.Fatal("machines differ before the first step (builder bug)")
		}
		// The first step executes the fuzzed word; the rest let its effect on
		// the successor address and task pipeline play out, and a reference
		// held on the busy pipe issue once it frees.
		for i := 0; i < 20; i++ {
			fast.Step()
			ref.Step()
			if !bytes.Equal(fast.Snapshot(), ref.Snapshot()) {
				t.Fatalf("interpreters diverge %d step(s) after word %+v (raw %#011x)", i+1, w, raw)
			}
		}
	})
}
