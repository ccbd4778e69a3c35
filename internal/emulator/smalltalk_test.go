package emulator

import (
	"testing"

	"dorado/internal/core"
)

// Smalltalk test world layout (absolute word addresses in the heap):
const (
	stIntClass   = VAHeap + 0x000 // SmallInteger class object
	stIntDict    = VAHeap + 0x010
	stPointClass = VAHeap + 0x040 // a two-field Point class
	stPointDict  = VAHeap + 0x050
	stPointObj   = VAHeap + 0x080 // a Point instance {class, x, y}
)

// buildSmalltalkWorld pokes a minimal class schema. Dictionary entries
// route selectors to function-header slots in the global area.
func buildSmalltalkWorld(m *core.Machine, intMethods, ptMethods [][2]uint16) {
	mem := m.Mem()
	mem.Poke(SIClassSlot, stIntClass)

	mem.Poke(stIntClass, 0) // metaclass (unused)
	mem.Poke(stIntClass+1, stIntDict)
	mem.Poke(stIntClass+2, uint16(len(intMethods)))
	for i, e := range intMethods {
		mem.Poke(stIntDict+uint32(2*i), e[0])
		mem.Poke(stIntDict+uint32(2*i)+1, e[1])
	}

	mem.Poke(stPointClass, 0)
	mem.Poke(stPointClass+1, stPointDict)
	mem.Poke(stPointClass+2, uint16(len(ptMethods)))
	for i, e := range ptMethods {
		mem.Poke(stPointDict+uint32(2*i), e[0])
		mem.Poke(stPointDict+uint32(2*i)+1, e[1])
	}

	mem.Poke(stPointObj, stPointClass)
	mem.Poke(stPointObj+1, 30<<1|1) // x = 30 (tagged)
	mem.Poke(stPointObj+2, 12<<1|1) // y = 12
}

func newSTMachine(t *testing.T, build func(a *Asm)) *core.Machine {
	t.Helper()
	p := Smalltalk()
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

func stRun(t *testing.T, m *core.Machine, max uint64) []uint16 {
	t.Helper()
	if !m.Run(max) {
		t.Fatalf("did not halt (task %d pc %v)", m.CurTask(), m.CurPC())
	}
	n := int(m.StackPtr() & 0x3F)
	out := make([]uint16, n)
	for i := 1; i <= n; i++ {
		out[i-1] = m.Stack(i)
	}
	return out
}

func TestSmalltalkPushAndAdd(t *testing.T) {
	m := newSTMachine(t, func(a *Asm) {
		a.OpW("PUSHK", 20).OpW("PUSHK", 22).Op("ADDI")
		a.Op("HALT")
	})
	st := stRun(t, m, 100000)
	if len(st) != 1 || st[0] != 42<<1|1 {
		t.Fatalf("stack = %v, want [%d]", st, 42<<1|1)
	}
}

func TestSmalltalkAddTypeCheckTraps(t *testing.T) {
	m := newSTMachine(t, func(a *Asm) {
		a.OpW("PUSHK", 20).Op("PUSHSELF").Op("ADDI") // pointer + int → trap
		a.Op("HALT")
	})
	buildSmalltalkWorld(m, nil, nil)
	// Boot frame receiver (frame[2]) = the Point object.
	m.Mem().Poke(VAFrames+2, stPointObj)
	if !m.Run(100000) {
		t.Fatal("did not halt")
	}
	// Trapped: the result push never happened; two operands remain.
	if got := m.StackPtr() & 0x3F; got != 1 {
		t.Fatalf("stack depth = %d, want 1 (trap before push-back)", got)
	}
}

func TestSmalltalkInstanceVariables(t *testing.T) {
	m := newSTMachine(t, func(a *Asm) {
		a.OpB("PUSHIV", 1).OpB("PUSHIV", 2).Op("ADDI") // x + y (operands are n+1)
		a.OpB("STIV", 1)                               // x ← x+y
		a.OpB("PUSHIV", 1)
		a.Op("HALT")
	})
	buildSmalltalkWorld(m, nil, nil)
	m.Mem().Poke(VAFrames+2, stPointObj)
	st := stRun(t, m, 100000)
	want := uint16(42<<1 | 1)
	if len(st) != 1 || st[0] != want {
		t.Fatalf("stack = %v, want [%d]", st, want)
	}
	if m.Mem().Peek(stPointObj+1) != want {
		t.Errorf("x = %d after STIV", m.Mem().Peek(stPointObj+1))
	}
}

func TestSmalltalkSendToObject(t *testing.T) {
	// Point>>sum: answers x + y + arg. Selector 7.
	m2 := newSTMachine(t, func(a *Asm) {
		// push receiver (via PUSHSELF of the boot frame), push arg, send.
		a.Op("PUSHSELF")
		a.OpW("PUSHK", 1)
		a.OpB2("SEND", 7, 1)
		a.Op("HALT")
		a.Label("sum") // method body: self x + self y + arg (arg = temp 3)
		a.OpB("PUSHIV", 1).OpB("PUSHIV", 2).Op("ADDI")
		a.OpB("PUSHL", 3).Op("ADDI")
		a.Op("RETTOP")
	})
	buildSmalltalkWorld(m2, nil, [][2]uint16{{7, 300}})
	// Method header at global slot 300 → entry byte PC of "sum".
	// Layout: PUSHSELF(1) PUSHK(3) SEND(3) HALT(1) = 8.
	DefineFunc(m2, 300, 8, 0)
	m2.Mem().Poke(VAFrames+2, stPointObj)
	st := stRun(t, m2, 1000000)
	want := uint16(43<<1 | 1) // 30+12+1
	if len(st) != 1 || st[0] != want {
		t.Fatalf("send result = %v, want [%d]", st, want)
	}
}

func TestSmalltalkSendToSmallInteger(t *testing.T) {
	// Integer>>double (selector 3): method reads its receiver from
	// frame[2] via PUSHSELF and adds it to itself.
	m := newSTMachine(t, func(a *Asm) {
		a.OpW("PUSHK", 21)
		a.OpB2("SEND", 3, 0)
		a.Op("HALT")
		a.Label("double")
		a.Op("PUSHSELF").Op("PUSHSELF").Op("ADDI")
		a.Op("RETTOP")
	})
	buildSmalltalkWorld(m, [][2]uint16{{3, 310}}, nil)
	// PUSHK(3) SEND(3) HALT(1) = 7.
	DefineFunc(m, 310, 7, 0)
	st := stRun(t, m, 1000000)
	want := uint16(42<<1 | 1)
	if len(st) != 1 || st[0] != want {
		t.Fatalf("21 double = %v, want [%d]", st, want)
	}
}

func TestSmalltalkMessageNotUnderstood(t *testing.T) {
	m := newSTMachine(t, func(a *Asm) {
		a.OpW("PUSHK", 21)
		a.OpB2("SEND", 99, 0) // unknown selector
		a.Op("HALT")
	})
	buildSmalltalkWorld(m, [][2]uint16{{3, 310}}, nil)
	if !m.Run(1000000) {
		t.Fatal("did not halt")
	}
	// Halted at the trap (message not understood), receiver still stacked.
	if got := m.StackPtr() & 0x3F; got != 1 {
		t.Fatalf("stack depth = %d, want 1", got)
	}
}

func TestSmalltalkDictionaryProbeDepth(t *testing.T) {
	// A selector deeper in the dictionary costs more cycles: dynamic
	// dispatch is the expensive part of Smalltalk (§7's Smalltalk emulator
	// is the slowest of the four).
	run := func(selector uint16, dict [][2]uint16) uint64 {
		m := newSTMachine(t, func(a *Asm) {
			a.OpW("PUSHK", 21)
			a.OpB2("SEND", uint8(selector), 0)
			a.Op("HALT")
			a.Label("noop")
			a.Op("RETTOP")
		})
		buildSmalltalkWorld(m, dict, nil)
		DefineFunc(m, 310, 7, 0)
		if !m.Run(1000000) {
			t.Fatal("did not halt")
		}
		return m.Cycle()
	}
	dict := [][2]uint16{{1, 310}, {2, 310}, {3, 310}, {4, 310}, {5, 310}}
	first := run(1, dict)
	last := run(5, dict)
	if last <= first {
		t.Errorf("probe depth 5 (%d cycles) not slower than depth 1 (%d)", last, first)
	}
}
