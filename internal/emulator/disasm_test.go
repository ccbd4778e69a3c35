package emulator

import (
	"strings"
	"testing"
)

func TestDisassemble(t *testing.T) {
	p := Mesa()
	a := NewAsm(p)
	a.OpB("LIB", 5).OpW("LIW", 1000).Op("ADD").OpW("CALL", 100).Op("HALT")
	code, err := a.Bytes()
	if err != nil {
		t.Fatal(err)
	}
	out := Disassemble(p, code)
	for _, want := range []string{"LIB 5", "LIW 1000", "ADD", "CALL 100", "HALT"} {
		if !strings.Contains(out, want) {
			t.Errorf("disassembly missing %q:\n%s", want, out)
		}
	}
	// Lines carry byte offsets in order.
	if !strings.HasPrefix(out, "   0: ") {
		t.Errorf("no offset prefix:\n%s", out)
	}
}

func TestDisassembleSmalltalkTwoByte(t *testing.T) {
	p := Smalltalk()
	a := NewAsm(p)
	a.OpB2("SEND", 3, 1)
	code, err := a.Bytes()
	if err != nil {
		t.Fatal(err)
	}
	out := Disassemble(p, code)
	if !strings.Contains(out, "SEND 3,1") {
		t.Errorf("two-byte operands wrong:\n%s", out)
	}
}

func TestDisassembleInvalidAndTruncated(t *testing.T) {
	p := Mesa()
	out := Disassemble(p, []byte{0xEE, MesaLIW, 0x01})
	if !strings.Contains(out, "??") || !strings.Contains(out, "truncated") {
		t.Errorf("edge cases not rendered:\n%s", out)
	}
}
