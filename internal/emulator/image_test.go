package emulator

import (
	"testing"

	"dorado/internal/core"
)

func TestSystemImageRunsEveryLanguage(t *testing.T) {
	img, err := BuildSystemImage()
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("system image: %v", img.Micro.Stats)

	// Mesa view.
	{
		m, _ := core.New(core.Config{})
		a := NewAsm(img.Mesa)
		a.OpB("LIB", 40).OpB("LIB", 2).Op("ADD").Op("HALT")
		if err := a.Install(m); err != nil {
			t.Fatal(err)
		}
		img.Mesa.InstallOn(m)
		if !m.Run(100_000) {
			t.Fatal("mesa view did not halt")
		}
		if m.Stack(1) != 42 {
			t.Fatalf("mesa on image = %d", m.Stack(1))
		}
	}
	// BCPL view.
	{
		m, _ := core.New(core.Config{})
		a := NewAsm(img.BCPL)
		a.OpB("LDK", 40).OpB("ADDK", 2).Op("HALT")
		if err := a.Install(m); err != nil {
			t.Fatal(err)
		}
		img.BCPL.InstallOn(m)
		if !m.Run(100_000) {
			t.Fatal("bcpl view did not halt")
		}
		if m.T(0) != 42 {
			t.Fatalf("bcpl on image = %d", m.T(0))
		}
	}
	// Lisp view.
	{
		m, _ := core.New(core.Config{})
		a := NewAsm(img.Lisp)
		a.OpW("PUSHK", 40).OpW("PUSHK", 2).Op("ADDF").Op("HALT")
		if err := a.Install(m); err != nil {
			t.Fatal(err)
		}
		img.Lisp.InstallOn(m)
		if !m.Run(100_000) {
			t.Fatal("lisp view did not halt")
		}
		if st := LispStack(m); len(st) != 1 || st[0] != [2]uint16{TagFixnum, 42} {
			t.Fatalf("lisp on image = %v", st)
		}
	}
	// Smalltalk view.
	{
		m, _ := core.New(core.Config{})
		a := NewAsm(img.Smalltalk)
		a.OpW("PUSHK", 20).OpW("PUSHK", 22).Op("ADDI").Op("HALT")
		if err := a.Install(m); err != nil {
			t.Fatal(err)
		}
		img.Smalltalk.InstallOn(m)
		if !m.Run(100_000) {
			t.Fatal("smalltalk view did not halt")
		}
		if m.Stack(1) != 42<<1|1 {
			t.Fatalf("smalltalk on image = %d", m.Stack(1))
		}
	}
	// The views share one store: all boot addresses differ and all live in
	// the same image.
	boots := map[string]bool{}
	for _, p := range []*Program{img.Mesa, img.BCPL, img.Lisp, img.Smalltalk} {
		if boots[p.Boot.String()] {
			t.Fatalf("duplicate boot address %v", p.Boot)
		}
		boots[p.Boot.String()] = true
		if !img.Micro.Used[p.Boot] {
			t.Fatalf("boot %v not in the image", p.Boot)
		}
	}
}

func TestSystemImageRebootBetweenLanguages(t *testing.T) {
	// One machine, one store, two languages in sequence: the Dorado's
	// actual mode of use (reload the emulator, keep the microstore).
	img, err := BuildSystemImage()
	if err != nil {
		t.Fatal(err)
	}
	m, _ := core.New(core.Config{})
	a := NewAsm(img.Mesa)
	a.OpB("LIB", 7).Op("HALT")
	if err := a.Install(m); err != nil {
		t.Fatal(err)
	}
	img.Mesa.InstallOn(m)
	if !m.Run(100_000) || m.Stack(1) != 7 {
		t.Fatal("first (Mesa) boot failed")
	}
	// Reboot as BCPL without reloading the store contents.
	b := NewAsm(img.BCPL)
	b.OpB("LDK", 9).Op("HALT")
	if err := b.Install(m); err != nil {
		t.Fatal(err)
	}
	img.BCPL.InstallOn(m)
	if !m.Run(100_000) || m.T(0) != 9 {
		t.Fatalf("second (BCPL) boot failed: T=%d", m.T(0))
	}
}
