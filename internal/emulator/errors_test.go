package emulator

import (
	"errors"
	"testing"

	"dorado/internal/core"
)

func TestAsmInstallErrorIsTyped(t *testing.T) {
	p := Mesa()
	m, err := core.New(core.Config{})
	if err != nil {
		t.Fatal(err)
	}
	a := NewAsm(p)
	a.OpL("jmp", "nowhere") // undefined label: assembly must fail
	err = a.Install(m)
	if err == nil {
		t.Fatal("Install succeeded with an undefined label")
	}
	var ie *InstallError
	if !errors.As(err, &ie) {
		t.Fatalf("error %v (%T) is not an *InstallError", err, err)
	}
	if ie.Stage != "macrocode" || ie.Emulator != "mesa" {
		t.Errorf("InstallError fields = %q/%q, want mesa/macrocode", ie.Emulator, ie.Stage)
	}
	if ie.Unwrap() == nil {
		t.Error("InstallError does not wrap a cause")
	}
}

func TestInstallErrorMessage(t *testing.T) {
	e := &InstallError{Emulator: "lisp", Stage: "splice", Err: errors.New("boom")}
	if got, want := e.Error(), "emulator lisp: splice: boom"; got != want {
		t.Errorf("Error() = %q, want %q", got, want)
	}
	anon := &InstallError{Stage: "decode-table", Err: errors.New("boom")}
	if got, want := anon.Error(), "emulator: decode-table: boom"; got != want {
		t.Errorf("Error() = %q, want %q", got, want)
	}
}
