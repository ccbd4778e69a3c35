package emulator

import (
	"testing"

	"dorado/internal/core"
)

// newMesaMachine builds a machine with the Mesa emulator installed and the
// given macroprogram loaded and booted.
func newMesaMachine(t *testing.T, build func(a *Asm)) (*core.Machine, *Program) {
	t.Helper()
	p := Mesa()
	m, err := core.New(core.Config{})
	if err != nil {
		t.Fatal(err)
	}
	a := NewAsm(p)
	build(a)
	code, err := a.Bytes()
	if err != nil {
		t.Fatal(err)
	}
	LoadCode(m, code)
	p.InstallOn(m)
	return m, p
}

// runToHalt runs the machine and returns the popped evaluation stack as a
// slice (bottom first).
func runToHalt(t *testing.T, m *core.Machine, max uint64) []uint16 {
	t.Helper()
	if !m.Run(max) {
		t.Fatalf("did not halt in %d cycles (task %d pc %v)", max, m.CurTask(), m.CurPC())
	}
	n := int(m.StackPtr() & 0x3F)
	out := make([]uint16, n)
	for i := 1; i <= n; i++ {
		out[i-1] = m.Stack(i)
	}
	return out
}

func TestMesaArithmetic(t *testing.T) {
	m, _ := newMesaMachine(t, func(a *Asm) {
		a.OpB("LIB", 10).OpB("LIB", 32).Op("ADD")   // 42
		a.OpW("LIW", 1000).OpB("LIB", 58).Op("SUB") // 942
		a.Op("ADD")                                 // 984
		a.Op("HALT")
	})
	st := runToHalt(t, m, 10000)
	if len(st) != 1 || st[0] != 984 {
		t.Fatalf("stack = %v, want [984]", st)
	}
}

func TestMesaLogicAndUnary(t *testing.T) {
	m, _ := newMesaMachine(t, func(a *Asm) {
		a.OpW("LIW", 0xF0F0).OpW("LIW", 0xFF00).Op("AND") // 0xF000
		a.OpW("LIW", 0x000F).Op("OR")                     // 0xF00F
		a.OpW("LIW", 0xFFFF).Op("XOR")                    // 0x0FF0
		a.Op("INC")                                       // 0x0FF1
		a.Op("NEG")                                       // -0x0FF1
		a.Op("HALT")
	})
	st := runToHalt(t, m, 10000)
	var want uint16 = 0x0FF1
	want = -want
	if len(st) != 1 || st[0] != want {
		t.Fatalf("stack = %v, want [%#04x]", st, want)
	}
}

func TestMesaDupDrop(t *testing.T) {
	m, _ := newMesaMachine(t, func(a *Asm) {
		a.OpB("LIB", 7).Op("DUP").Op("ADD") // 14
		a.OpB("LIB", 9).Op("DROP")
		a.Op("HALT")
	})
	st := runToHalt(t, m, 10000)
	if len(st) != 1 || st[0] != 14 {
		t.Fatalf("stack = %v, want [14]", st)
	}
}

func TestMesaLocalsViaFrame(t *testing.T) {
	// SL then LL round-trips through the frame in memory.
	m, _ := newMesaMachine(t, func(a *Asm) {
		a.OpW("LIW", 0x1234&0x00FF|0x1200).OpB("SL", 5) // store 0x1234-ish... use 0x1200|0x34
		a.OpB("LL", 5).OpB("LL", 5).Op("ADD")
		a.Op("HALT")
	})
	st := runToHalt(t, m, 10000)
	want := uint16(0x1234&0x00FF|0x1200) * 2
	if len(st) != 1 || st[0] != want {
		t.Fatalf("stack = %v, want [%#04x]", st, want)
	}
	// The value landed in the boot frame.
	if got := m.Mem().Peek(VAFrames + 5); got != 0x1234&0x00FF|0x1200 {
		t.Errorf("frame[5] = %#04x", got)
	}
}

func TestMesaGlobals(t *testing.T) {
	m, _ := newMesaMachine(t, func(a *Asm) {
		a.OpB("LIB", 77).OpB("SG", 20)
		a.OpB("LG", 20).OpB("LG", 20).Op("ADD")
		a.Op("HALT")
	})
	if got := m.Mem().Peek(VAGlobal + 20); got != 0 {
		t.Fatalf("global pre-state dirty")
	}
	st := runToHalt(t, m, 10000)
	if len(st) != 1 || st[0] != 154 {
		t.Fatalf("stack = %v, want [154]", st)
	}
	if got := m.Mem().Peek(VAGlobal + 20); got != 77 {
		t.Errorf("global[20] = %d", got)
	}
}

func TestMesaJumps(t *testing.T) {
	m, _ := newMesaMachine(t, func(a *Asm) {
		a.OpB("LIB", 0).OpL("JZ", "taken")
		a.OpB("LIB", 99).Op("HALT") // skipped
		a.Label("taken")
		a.OpB("LIB", 1).OpL("JNZ", "t2")
		a.OpB("LIB", 98).Op("HALT") // skipped
		a.Label("t2")
		a.OpB("LIB", 5).OpL("JZ", "bad") // not taken
		a.OpB("LIB", 42)
		a.OpL("JMP", "end")
		a.Label("bad")
		a.OpB("LIB", 97)
		a.Label("end")
		a.Op("HALT")
	})
	st := runToHalt(t, m, 10000)
	if len(st) != 1 || st[0] != 42 {
		t.Fatalf("stack = %v, want [42]", st)
	}
}

func TestMesaLoopSum(t *testing.T) {
	// Sum 1..10 with a loop using locals: local0 = i, local1 = acc.
	m, _ := newMesaMachine(t, func(a *Asm) {
		a.OpB("LIB", 10).OpB("SL", 0) // i = 10
		a.OpB("LIB", 0).OpB("SL", 1)  // acc = 0
		a.Label("loop")
		a.OpB("LL", 1).OpB("LL", 0).Op("ADD").OpB("SL", 1)  // acc += i
		a.OpB("LL", 0).OpW("LIW", 1).Op("SUB").OpB("SL", 0) // i--
		a.OpB("LL", 0).OpL("JNZ", "loop")
		a.OpB("LL", 1)
		a.Op("HALT")
	})
	st := runToHalt(t, m, 100000)
	if len(st) != 1 || st[0] != 55 {
		t.Fatalf("stack = %v, want [55]", st)
	}
}

func TestMesaCallReturn(t *testing.T) {
	// f(x, y) = x - y, called twice; verifies frame save/restore and the
	// args-in-pop-order convention (local0 = last arg = y).
	m, _ := newMesaMachine(t, func(a *Asm) {
		a.OpB("LIB", 50).OpB("LIB", 8).OpW("CALL", 100) // f(50,8) = 42
		a.OpB("LIB", 10).OpB("LIB", 3).OpW("CALL", 100) // f(10,3) = 7
		a.Op("ADD")                                     // 49
		a.Op("HALT")
		a.Label("f")
		// local0 = y (popped first), local1 = x.
		a.OpB("LL", 3).OpB("LL", 2).Op("SUB") // x - y  (locals 2,3 = args)
		a.Op("RET")
	})
	// Header slot 100 → entry at label "f":
	// byte layout LIB(2)+LIB(2)+CALL(3) ×2 + ADD(1) + HALT(1) = 16.
	DefineFunc(m, 100, 16, 2)
	got := runToHalt(t, m, 100000)
	if len(got) != 1 || got[0] != 49 {
		t.Fatalf("stack = %v, want [49]", got)
	}
}

func TestMesaNestedCalls(t *testing.T) {
	// g(x) = f(x) + 1, f(x) = x*2 (via ADD): two frame levels.
	m, _ := newMesaMachine(t, func(a *Asm) {
		a.OpB("LIB", 20).OpW("CALL", 110) // g(20) = 41
		a.Op("HALT")
		a.Label("g")                    // byte 6
		a.OpB("LL", 2).OpW("CALL", 120) // f(x)
		a.Op("INC")
		a.Op("RET")
		a.Label("f")
		a.OpB("LL", 2).OpB("LL", 2).Op("ADD")
		a.Op("RET")
	})
	// g at byte 6; f at byte 6 + LL(2)+CALL(3)+INC(1)+RET(1) = 13.
	DefineFunc(m, 110, 6, 1)
	DefineFunc(m, 120, 13, 1)
	st := runToHalt(t, m, 100000)
	if len(st) != 1 || st[0] != 41 {
		t.Fatalf("stack = %v, want [41]", st)
	}
}

func TestMesaFields(t *testing.T) {
	// RF/WF with a pre-encoded SHIFTCTL descriptor: field of width 4 at
	// bit 8.
	m, _ := newMesaMachine(t, func(a *Asm) {
		// mem[0x0100] = 0xABCD (poked below). Extract bits 8..11 → 0xB.
		a.OpW("LIW", 0x0100)
		a.OpW("RF", ExtractCtl(8, 4))
		// Insert 0x7 into bits 0..3 of mem[0x0100]: push addr, push val.
		a.OpW("LIW", 0x0100).OpB("LIB", 7)
		a.OpW("WF", InsertCtl(0, 4))
		a.Op("HALT")
	})
	m.Mem().Poke(0x0100, 0xABCD)
	st := runToHalt(t, m, 100000)
	if len(st) != 1 || st[0] != 0xB {
		t.Fatalf("extracted field = %v, want [0xB]", st)
	}
	if got := m.Mem().Peek(0x0100); got != 0xABC7 {
		t.Errorf("after WF mem = %#04x, want 0xabc7", got)
	}
}

func TestMesaMulAndShift(t *testing.T) {
	m, _ := newMesaMachine(t, func(a *Asm) {
		a.OpB("LIB", 12).OpB("LIB", 11).Op("MUL") // 132
		a.OpB("LSH", 3)                           // 1056
		a.Op("HALT")
	})
	st := runToHalt(t, m, 100000)
	if len(st) != 1 || st[0] != 1056 {
		t.Fatalf("stack = %v, want [1056]", st)
	}
}

func TestMesaSimpleOpsAreOneCycle(t *testing.T) {
	// The paper's headline: a simple macroinstruction executes in one
	// microcycle. With a warm IFU, N LIB/DROP pairs should cost ≈2N cycles
	// plus startup.
	const n = 100
	m, _ := newMesaMachine(t, func(a *Asm) {
		for i := 0; i < n; i++ {
			a.OpB("LIB", uint8(i)).Op("DROP")
		}
		a.Op("HALT")
	})
	runToHalt(t, m, 100000)
	perOp := float64(m.Cycle()) / float64(2*n)
	if perOp > 1.6 {
		t.Errorf("simple ops cost %.2f cycles each; paper claims ≈1", perOp)
	}
}
