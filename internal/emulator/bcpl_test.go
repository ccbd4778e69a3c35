package emulator

import (
	"testing"

	"dorado/internal/core"
)

func newBCPLMachine(t *testing.T, build func(a *Asm)) *core.Machine {
	t.Helper()
	p := BCPL()
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
	return m
}

func bcplRun(t *testing.T, m *core.Machine, max uint64) uint16 {
	t.Helper()
	if !m.Run(max) {
		t.Fatalf("did not halt (task %d pc %v)", m.CurTask(), m.CurPC())
	}
	return m.T(0) // the accumulator
}

func TestBCPLAccumulatorOps(t *testing.T) {
	m := newBCPLMachine(t, func(a *Asm) {
		a.OpB("LDK", 30).OpB("ADDK", 12) // 42
		a.OpB("STL", 4)
		a.OpB("LDK", 0).OpB("ADDL", 4).OpB("ADDL", 4) // 84
		a.OpB("SUBL", 4)                              // 42
		a.Op("HALT")
	})
	if got := bcplRun(t, m, 10000); got != 42 {
		t.Fatalf("ACC = %d, want 42", got)
	}
}

func TestBCPLLogicAndNeg(t *testing.T) {
	m := newBCPLMachine(t, func(a *Asm) {
		a.OpW("LDW", 0xF0F0).OpB("STL", 3)
		a.OpW("LDW", 0x0FF0).OpB("ANDL", 3) // 0x00F0
		a.OpB("STL", 4)
		a.OpW("LDW", 0x0F00).OpB("ORL", 4) // 0x0FF0
		a.Op("NEG")
		a.Op("HALT")
	})
	var want uint16 = 0x0FF0
	want = -want
	if got := bcplRun(t, m, 10000); got != want {
		t.Fatalf("ACC = %#04x, want %#04x", got, want)
	}
}

func TestBCPLJumps(t *testing.T) {
	m := newBCPLMachine(t, func(a *Asm) {
		a.OpB("LDK", 0).OpL("JZ", "z")
		a.OpB("LDK", 99).Op("HALT")
		a.Label("z")
		a.OpB("LDK", 5).OpL("JNZ", "nz")
		a.OpB("LDK", 98).Op("HALT")
		a.Label("nz")
		a.OpL("JMP", "end")
		a.OpB("LDK", 97)
		a.Label("end")
		a.Op("HALT")
	})
	if got := bcplRun(t, m, 10000); got != 5 {
		t.Fatalf("ACC = %d, want 5", got)
	}
}

func TestBCPLCountdownLoop(t *testing.T) {
	// Sum 10..1 via a countdown loop (slots 0,1 of a frame are its links).
	m2 := newBCPLMachine(t, func(a *Asm) {
		a.OpB("LDK", 1).OpB("STL", 3)  // one = 1
		a.OpB("LDK", 10).OpB("STL", 2) // i = 10
		a.OpB("LDK", 0).OpB("STG", 0)
		a.Label("loop")
		a.OpB("LDG", 0).OpB("ADDL", 2).OpB("STG", 0)
		a.OpB("LDL", 2).OpB("SUBL", 3).OpB("STL", 2)
		a.OpL("JNZ", "loop")
		a.OpB("LDG", 0)
		a.Op("HALT")
	})
	if got := bcplRun(t, m2, 100000); got != 55 {
		t.Fatalf("sum = %d, want 55", got)
	}
}

func TestBCPLCallReturn(t *testing.T) {
	// f(x) = x + 7, argument and result in the accumulator.
	m := newBCPLMachine(t, func(a *Asm) {
		a.OpB("LDK", 35).OpW("CALL", 100)
		a.Op("HALT")
		a.Label("f") // byte 6
		a.OpB("STL", 2)
		a.OpB("ADDK", 7)
		a.Op("RET")
	})
	DefineFunc(m, 100, 6, 1)
	if got := bcplRun(t, m, 100000); got != 42 {
		t.Fatalf("f(35) = %d, want 42", got)
	}
}

func TestBCPLNestedCallsPreserveLocals(t *testing.T) {
	// g(x) = f(x+1) + local, proving frames are independent.
	m := newBCPLMachine(t, func(a *Asm) {
		a.OpB("LDK", 10).OpW("CALL", 100) // g(10)
		a.Op("HALT")
		a.Label("g") // byte 6
		a.OpB("STL", 2)
		a.OpB("ADDK", 1).OpW("CALL", 110) // f(11) = 22
		a.OpB("ADDL", 2)                  // + 10 = 32
		a.Op("RET")
		a.Label("f") // byte 6+2+2+3+2+1 = 16
		a.OpB("STL", 2)
		a.OpB("ADDL", 2) // x*2
		a.Op("RET")
	})
	DefineFunc(m, 100, 6, 1)
	DefineFunc(m, 110, 16, 1)
	if got := bcplRun(t, m, 100000); got != 32 {
		t.Fatalf("g(10) = %d, want 32", got)
	}
}

func TestBCPLIndexedLoad(t *testing.T) {
	m := newBCPLMachine(t, func(a *Asm) {
		a.OpW("LDW", 0x0200).OpB("STL", 2) // vector base
		a.OpB("LDK", 3).OpB("LDIX", 2)     // ACC ← mem[0x200+3]
		a.Op("HALT")
	})
	m.Mem().Poke(0x0203, 777)
	if got := bcplRun(t, m, 10000); got != 777 {
		t.Fatalf("LDIX = %d, want 777", got)
	}
}
