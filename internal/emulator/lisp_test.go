package emulator

import (
	"testing"

	"dorado/internal/core"
)

func newLispMachine(t *testing.T, build func(a *Asm)) *core.Machine {
	t.Helper()
	p := Lisp()
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

// lispStack returns the memory evaluation stack as (tag, value) pairs.
func lispStack(t *testing.T, m *core.Machine) [][2]uint16 {
	t.Helper()
	sp := uint32(m.RM(12)) // rSP
	var out [][2]uint16
	for a := uint32(VAStack); a+1 < sp+1 && a < sp; a += 2 {
		out = append(out, [2]uint16{m.Mem().Peek(a), m.Mem().Peek(a + 1)})
	}
	return out
}

func lispRun(t *testing.T, m *core.Machine, max uint64) [][2]uint16 {
	t.Helper()
	if !m.Run(max) {
		t.Fatalf("did not halt (task %d pc %v)", m.CurTask(), m.CurPC())
	}
	return lispStack(t, m)
}

func TestLispPushArith(t *testing.T) {
	m := newLispMachine(t, func(a *Asm) {
		a.OpW("PUSHK", 30).OpW("PUSHK", 12).Op("ADDF") // 42
		a.OpW("PUSHK", 10).Op("SUBF")                  // 32
		a.Op("HALT")
	})
	st := lispRun(t, m, 100000)
	if len(st) != 1 || st[0] != [2]uint16{TagFixnum, 32} {
		t.Fatalf("stack = %v, want [[1 32]]", st)
	}
}

func TestLispTypeErrorTraps(t *testing.T) {
	m := newLispMachine(t, func(a *Asm) {
		a.Op("PUSHNIL").OpW("PUSHK", 1).Op("ADDF") // NIL + 1: type error
		a.Op("HALT")
	})
	if !m.Run(100000) {
		t.Fatal("did not halt")
	}
	// Halted at the trap, not at the program's HALT: the stack still holds
	// operands (nothing was pushed back).
	st := lispStack(t, m)
	if len(st) != 0 {
		t.Fatalf("trap should fire before the result push; stack = %v", st)
	}
}

func TestLispLocals(t *testing.T) {
	m := newLispMachine(t, func(a *Asm) {
		a.OpW("PUSHK", 123).OpB("POPL", 4) // local item at frame words 4,5
		a.OpB("PUSHL", 4).OpB("PUSHL", 4).Op("ADDF")
		a.Op("HALT")
	})
	st := lispRun(t, m, 100000)
	if len(st) != 1 || st[0] != [2]uint16{TagFixnum, 246} {
		t.Fatalf("stack = %v, want [[1 246]]", st)
	}
	if m.Mem().Peek(VAFrames+4) != TagFixnum || m.Mem().Peek(VAFrames+5) != 123 {
		t.Errorf("local item = [%d %d]", m.Mem().Peek(VAFrames+4), m.Mem().Peek(VAFrames+5))
	}
}

func TestLispConsCarCdr(t *testing.T) {
	m := newLispMachine(t, func(a *Asm) {
		a.OpW("PUSHK", 7).OpW("PUSHK", 9).Op("CONS") // (7 . 9)
		a.Op("CDR")
		a.Op("HALT")
	})
	st := lispRun(t, m, 100000)
	if len(st) != 1 || st[0] != [2]uint16{TagFixnum, 9} {
		t.Fatalf("cdr = %v, want [[1 9]]", st)
	}

	m2 := newLispMachine(t, func(a *Asm) {
		a.OpW("PUSHK", 7).Op("PUSHNIL").Op("CONS") // (7)
		a.Op("CAR")
		a.Op("HALT")
	})
	st2 := lispRun(t, m2, 100000)
	if len(st2) != 1 || st2[0] != [2]uint16{TagFixnum, 7} {
		t.Fatalf("car = %v, want [[1 7]]", st2)
	}
}

func TestLispCarOfFixnumTraps(t *testing.T) {
	m := newLispMachine(t, func(a *Asm) {
		a.OpW("PUSHK", 7).Op("CAR")
		a.Op("HALT")
	})
	if !m.Run(100000) {
		t.Fatal("did not halt")
	}
	if len(lispStack(t, m)) != 0 {
		t.Fatal("CAR of a fixnum must trap before pushing")
	}
}

func TestLispJumps(t *testing.T) {
	m := newLispMachine(t, func(a *Asm) {
		a.Op("PUSHNIL").OpL("JNIL", "nil1")
		a.OpW("PUSHK", 99)
		a.Op("HALT")
		a.Label("nil1")
		a.OpW("PUSHK", 5).OpL("JNIL", "bad") // fixnum: not taken
		a.OpW("PUSHK", 42)
		a.OpL("JMP", "end")
		a.Label("bad")
		a.OpW("PUSHK", 98)
		a.Label("end")
		a.Op("HALT")
	})
	st := lispRun(t, m, 100000)
	if len(st) != 1 || st[0] != [2]uint16{TagFixnum, 42} {
		t.Fatalf("stack = %v, want [[1 42]]", st)
	}
}

func TestLispCallBindsAndUnbinds(t *testing.T) {
	// f(x, y) = x - y using shallow-bound parameter symbols.
	const symX, symY = VAHeap + 0x100, VAHeap + 0x110
	m := newLispMachine(t, func(a *Asm) {
		a.OpW("PUSHK", 50).OpW("PUSHK", 8).OpW("CALLF", 200) // f(50, 8)
		a.Op("HALT")
		a.Label("f")
		// Body reads the args from frame locals: item slots 4,5 (=y, popped
		// first) and 6,7 (=x).
		a.OpB("PUSHL", 6).OpB("PUSHL", 4).Op("SUBF")
		a.Op("RETF")
	})
	// Entry: PUSHK(3)+PUSHK(3)+CALLF(3)+HALT(1) = 10.
	DefineLispFunc(m, 200, 10, []uint16{symX, symY})
	// Pre-existing (global) bindings of x and y.
	m.Mem().Poke(symX, TagFixnum)
	m.Mem().Poke(symX+1, 1111)
	m.Mem().Poke(symY, TagFixnum)
	m.Mem().Poke(symY+1, 2222)
	st := lispRun(t, m, 1000000)
	if len(st) != 1 || st[0] != [2]uint16{TagFixnum, 42} {
		t.Fatalf("f(50,8) = %v, want [[1 42]]", st)
	}
	// Old bindings restored after RETF.
	if m.Mem().Peek(symX+1) != 1111 || m.Mem().Peek(symY+1) != 2222 {
		t.Errorf("bindings not restored: x=%d y=%d", m.Mem().Peek(symX+1), m.Mem().Peek(symY+1))
	}
	// Binding stack rewound.
	if m.RM(15) != VABind {
		t.Errorf("binding stack pointer = %#x, want %#x", m.RM(15), VABind)
	}
}

func TestLispBindingVisibleDuringCall(t *testing.T) {
	// During the call, the parameter symbol's value cell holds the argument
	// (shallow binding); the callee reads it via an absolute CAR-style
	// probe... simpler: a nested call's body pushes the symbol's cell via
	// PUSHL of its own frame copy, already covered. Here: verify the cell
	// contents mid-call by trapping inside the body.
	const symX = VAHeap + 0x100
	m := newLispMachine(t, func(a *Asm) {
		a.OpW("PUSHK", 77).OpW("CALLF", 200)
		a.Op("HALT")
		a.Label("f")
		a.Op("HALT") // stop inside the call
	})
	DefineLispFunc(m, 200, 7, []uint16{symX})
	if !m.Run(1000000) {
		t.Fatal("did not halt")
	}
	if m.Mem().Peek(symX) != TagFixnum || m.Mem().Peek(symX+1) != 77 {
		t.Errorf("shallow binding not set: [%d %d]", m.Mem().Peek(symX), m.Mem().Peek(symX+1))
	}
	// One binding record on the stack.
	if m.RM(15) != VABind+2 {
		t.Errorf("binding sp = %#x, want %#x", m.RM(15), VABind+2)
	}
}
