package dorado

import "testing"

func TestQuickstartMesa(t *testing.T) {
	sys, err := New(WithLanguage(Mesa))
	if err != nil {
		t.Fatal(err)
	}
	asm := sys.Asm()
	asm.OpB("LIB", 2).OpB("LIB", 40).Op("ADD").Op("HALT")
	if err := sys.Boot(asm); err != nil {
		t.Fatal(err)
	}
	if !sys.Run(10_000) {
		t.Fatal("did not halt")
	}
	st := sys.Stack()
	if len(st) != 1 || st[0] != 42 {
		t.Fatalf("stack = %v, want [42]", st)
	}
}

func TestBCPLAccumulator(t *testing.T) {
	sys, err := New(WithLanguage(BCPL))
	if err != nil {
		t.Fatal(err)
	}
	asm := sys.Asm()
	asm.OpB("LDK", 40).OpB("ADDK", 2).Op("HALT")
	if err := sys.Boot(asm); err != nil {
		t.Fatal(err)
	}
	if !sys.Run(10_000) {
		t.Fatal("did not halt")
	}
	if sys.Acc() != 42 {
		t.Fatalf("ACC = %d", sys.Acc())
	}
}

func TestAllLanguagesBuild(t *testing.T) {
	for _, l := range []Language{Mesa, BCPL, Lisp, Smalltalk} {
		if _, err := New(WithLanguage(l)); err != nil {
			t.Errorf("%v: %v", l, err)
		}
	}
	if _, err := New(WithLanguage(Language(99))); err == nil {
		t.Error("unknown language should fail")
	}
}

func TestMicrocodeLevel(t *testing.T) {
	// The low-level path: hand-assembled microcode on a bare machine.
	b := NewBuilder()
	b.Label("start")
	// (Uses masm types via the builder directly — see internal packages
	// for the full instruction vocabulary.)
	b.Halt()
	p, err := b.Assemble()
	if err != nil {
		t.Fatal(err)
	}
	sys, err := New()
	if err != nil {
		t.Fatal(err)
	}
	m := sys.Machine
	m.Load(&p.Words)
	m.Start(p.MustEntry("start"))
	if !m.Run(100) {
		t.Fatal("did not halt")
	}
}

func TestExperimentListComplete(t *testing.T) {
	exps := Experiments()
	if len(exps) != 14 {
		t.Fatalf("%d experiments, want 14", len(exps))
	}
	seen := map[string]bool{}
	for _, e := range exps {
		if seen[e.ID] {
			t.Errorf("duplicate experiment %s", e.ID)
		}
		seen[e.ID] = true
	}
}
