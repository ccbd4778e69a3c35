package microcode

import (
	"strings"
	"testing"
)

func TestFFClassification(t *testing.T) {
	cases := map[FF]FFClass{
		FFNop:              FFClassNone,
		FFReadyB:           FFClassMisc,
		FFHalt:             FFClassMisc,
		FFProbeMD:          FFClassMisc,
		FFPutRBase:         FFClassPut,
		FFPutBaseHi:        FFClassPut,
		FFGetRBase:         FFClassGet,
		FFGetFaultLo:       FFClassGet,
		FFGetMacroPC:       FFClassGet,
		FFCountBase:        FFClassCountConst,
		FFCountBase + 15:   FFClassCountConst,
		FFMemBaseBase:      FFClassMemBaseConst,
		FFMemBaseBase + 31: FFClassMemBaseConst,
		FFShiftNoMask:      FFClassShifter,
		FFDivStep:          FFClassShifter,
		FFInput:            FFClassIO,
		FFDevCtl:           FFClassIO,
		FFRotBase:          FFClassRot,
		FFRotBase + 31:     FFClassRot,
		FFRMDestBase:       FFClassRMDest,
		FFRMDestBase + 15:  FFClassRMDest,
		0x0A:               FFClassReserved,
		0x1F:               FFClassReserved,
		0x2F:               FFClassReserved,
		0x6F:               FFClassReserved,
		0x7F:               FFClassReserved,
		0xB0:               FFClassReserved,
		0xFF:               FFClassReserved,
	}
	for ff, want := range cases {
		if got := ClassifyFF(ff); got != want {
			t.Errorf("ClassifyFF(%#02x) = %v, want %v", ff, got, want)
		}
	}
}

func TestFFClassificationTotal(t *testing.T) {
	// Every byte classifies into one of the declared classes.
	for b := 0; b < 256; b++ {
		if c := ClassifyFF(FF(b)); c > FFClassReserved {
			t.Errorf("ClassifyFF(%#02x) = %d, past the declared classes", b, c)
		}
	}
}

func TestFFNames(t *testing.T) {
	// Every named op renders; parameterized groups render their argument;
	// reserved bytes render as hex.
	if FFName(FFInput) != "Input" {
		t.Errorf("FFName(Input) = %q", FFName(FFInput))
	}
	if got := FFName(FFCountBase + 5); got != "Count←5" {
		t.Errorf("count name = %q", got)
	}
	if got := FFName(FFMemBaseBase + 9); got != "MemBase←9" {
		t.Errorf("membase name = %q", got)
	}
	if got := FFName(FFRotBase + 12); got != "ShiftCtl←Rot12" {
		t.Errorf("rot name = %q", got)
	}
	if got := FFName(FFRMDestBase + 7); got != "RM[7]←" {
		t.Errorf("rmdest name = %q", got)
	}
	if !strings.Contains(FFName(0xB5), "0xb5") {
		t.Errorf("reserved name = %q", FFName(0xB5))
	}
}

func TestEnumStrings(t *testing.T) {
	// Stringers cover their whole domains (used by the disassembler and
	// the trace package; a panic or empty string here breaks debugging).
	for b := BSelect(0); b < 8; b++ {
		if b.String() == "" || strings.HasPrefix(b.String(), "BSelect(") {
			t.Errorf("BSelect %d renders as %q", b, b.String())
		}
	}
	for a := ASelect(0); a < 8; a++ {
		if a.String() == "" || strings.HasPrefix(a.String(), "ASelect(") {
			t.Errorf("ASelect %d renders as %q", a, a.String())
		}
	}
	for lc := LoadControl(0); lc < 4; lc++ {
		if lc.String() == "" {
			t.Errorf("LoadControl %d empty", lc)
		}
	}
	if LoadControl(6).String() == "" {
		t.Error("reserved LoadControl renders empty")
	}
	for c := Condition(0); c < 8; c++ {
		if c.String() == "" {
			t.Errorf("Condition %d empty", c)
		}
	}
	for f := ALUFn(0); f < 16; f++ {
		if f.String() == "" {
			t.Errorf("ALUFn %d empty", f)
		}
	}
	for cc := CarryCtl(0); cc < 4; cc++ {
		if cc.String() == "" {
			t.Errorf("CarryCtl %d empty", cc)
		}
	}
	for _, k := range []NextKind{NextGoto, NextCall, NextBranch, NextLongGoto,
		NextLongCall, NextReturn, NextIFUJump, NextDispatch8, NextDispatch256, NextReserved} {
		if k.String() == "" {
			t.Errorf("NextKind %d empty", k)
		}
	}
	if (ShiftCtl{Count: 3, LMask: 1, RMask: 2}).String() != "rot3,l1,r2" {
		t.Error("ShiftCtl string")
	}
	if (ALUCtl{Fn: ALUAplusB, Cin: CarryOne}).String() != "A+B/c1" {
		t.Error("ALUCtl string")
	}
}

func TestASelectPredicates(t *testing.T) {
	memRefs := map[ASelect]bool{
		ASelFetch: true, ASelStore: true, ASelFetchIFU: true, ASelStoreIFU: true,
	}
	stores := map[ASelect]bool{ASelStore: true, ASelStoreIFU: true}
	ifuData := map[ASelect]bool{ASelIFUData: true, ASelFetchIFU: true, ASelStoreIFU: true}
	for a := ASelect(0); a < 8; a++ {
		if a.StartsMemRef() != memRefs[a] {
			t.Errorf("%v StartsMemRef = %v", a, a.StartsMemRef())
		}
		if a.IsStore() != stores[a] {
			t.Errorf("%v IsStore = %v", a, a.IsStore())
		}
		if a.UsesIFUData() != ifuData[a] {
			t.Errorf("%v UsesIFUData = %v", a, a.UsesIFUData())
		}
	}
}

func TestLoadControlPredicates(t *testing.T) {
	if LCNone.LoadsT() || LCNone.LoadsRM() {
		t.Error("LCNone loads something")
	}
	if !LCLoadT.LoadsT() || LCLoadT.LoadsRM() {
		t.Error("LCLoadT wrong")
	}
	if LCLoadRM.LoadsT() || !LCLoadRM.LoadsRM() {
		t.Error("LCLoadRM wrong")
	}
	if !LCLoadBoth.LoadsT() || !LCLoadBoth.LoadsRM() {
		t.Error("LCLoadBoth wrong")
	}
}

func TestALUFnIsArith(t *testing.T) {
	arith := map[ALUFn]bool{
		ALUAplusB: true, ALUAminusB: true, ALUBminusA: true,
		ALUAplus1: true, ALUAminus1: true,
	}
	for f := ALUFn(0); f < 16; f++ {
		if f.IsArith() != arith[f] {
			t.Errorf("%v IsArith = %v", f, f.IsArith())
		}
	}
}

func TestBSelIsConst(t *testing.T) {
	for b := BSelect(0); b < 8; b++ {
		want := b >= BSelConstLo
		if b.IsConst() != want {
			t.Errorf("%v IsConst = %v", b, b.IsConst())
		}
	}
}

func TestWordStringVariants(t *testing.T) {
	// Exercise the disassembler's branches: constants, stack mode, FF ops,
	// long transfers.
	words := []Word{
		{BSel: BSelConstHi, FF: 0x12, LC: LCLoadT, ALUOp: uint8(ALUB)},
		{Block: true, RAddr: 15, ASel: ASelRM, LC: LCLoadRM},
		{FF: FFInput, Next: MustEncodeNext(NextOp{Kind: NextIFUJump})},
		{FF: 0x07, Next: MustEncodeNext(NextOp{Kind: NextLongGoto, W: 5})},
		{Next: MustEncodeNext(NextOp{Kind: NextBranch, Cond: CondCarry, W: 4})},
		{ASel: ASelFetch, RAddr: 3},
	}
	for _, w := range words {
		s := w.String()
		if s == "" {
			t.Errorf("empty disassembly for %+v", w)
		}
	}
	// Specific spot checks.
	if s := words[0].String(); !strings.Contains(s, "0x1200") {
		t.Errorf("constant not shown: %q", s)
	}
	if s := words[1].String(); !strings.Contains(s, "stk-1") || !strings.Contains(s, "BLOCK") {
		t.Errorf("stack mode not shown: %q", s)
	}
	if s := words[3].String(); !strings.Contains(s, "LGOTO") || !strings.Contains(s, "FF=0x07") {
		t.Errorf("long goto not shown: %q", s)
	}
}
