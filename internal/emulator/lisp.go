package emulator

import (
	"dorado/internal/masm"
	"dorado/internal/microcode"
)

// Lisp item tags. An item is two 16-bit words, [tag, value] — "Lisp deals
// with 32 bit items" (§7).
const (
	TagNil    = 0
	TagFixnum = 1
	TagCons   = 2
	TagSymbol = 3
)

// Lisp opcode bytes. The emulator reconstructs the Interlisp byte-code
// interpreter's cost structure (§7): 32-bit tagged items, the evaluation
// stack kept *in memory* ("keeps its stack in memory, so two loads and two
// stores are done in a basic data transfer operation"), runtime type
// checking on arithmetic and list primitives, and a function call that
// allocates a frame and shallow-binds every argument's symbol.
const (
	LispPUSHK   = 0x01 // PUSHK w:  push fixnum literal       (3 µinst)
	LispPUSHNIL = 0x02 // PUSHNIL:  push NIL                  (2 µinst)
	LispPUSHL   = 0x03 // PUSHL o:  push local item at word o (6 µinst)
	LispPOPL    = 0x04 // POPL o:   pop item into local       (9 µinst)
	LispADDF    = 0x05 // ADDF:     fixnum add, type-checked  (14 µinst)
	LispSUBF    = 0x06 // SUBF:     fixnum subtract           (14 µinst)
	LispCAR     = 0x07 // CAR:      type-checked              (10 µinst)
	LispCDR     = 0x08 // CDR:      type-checked              (10 µinst)
	LispCONS    = 0x09 // CONS:     allocate + fill a cell    (25 µinst)
	LispJMP     = 0x0A // JMP w                               (3 µinst + restart)
	LispJNIL    = 0x0B // JNIL w:   pop; jump if NIL          (4 or 6 µinst)
	LispJZF     = 0x0E // JZF w:    pop; jump if value == 0   (5 or 7 µinst)
	LispCALLF   = 0x0C // CALLF w:  call, binding arguments   (≈24 + 17/arg)
	LispRETF    = 0x0D // RETF:     return, unbinding         (≈24 + 6/arg)
	LispHALT    = 0x1F
)

// Lisp returns the Lisp emulator, assembled on first use. Every
// caller shares the one Program and only reads it.
func Lisp() *Program { return lisp() }

var lisp = bundled(emitLispHandlers, finishLisp)

// finishLisp builds the decode table from the placed (or relocated) image.
func finishLisp(p *masm.Program, prefix string) (*Program, error) {
	table, ops, err := buildTable(p, prefix, []opdef{
		{LispPUSHK, "PUSHK", "l.pushk", 2, true},
		{LispPUSHNIL, "PUSHNIL", "l.pushnil", 0, false},
		{LispPUSHL, "PUSHL", "l.pushl", 1, false},
		{LispPOPL, "POPL", "l.popl", 1, false},
		{LispADDF, "ADDF", "l.addf", 0, false},
		{LispSUBF, "SUBF", "l.subf", 0, false},
		{LispCAR, "CAR", "l.car", 0, false},
		{LispCDR, "CDR", "l.cdr", 0, false},
		{LispCONS, "CONS", "l.cons", 0, false},
		{LispJMP, "JMP", "l.jmp", 2, true},
		{LispJNIL, "JNIL", "l.jnil", 2, true},
		{LispJZF, "JZF", "l.jzf", 2, true},
		{LispCALLF, "CALLF", "l.callf", 2, true},
		{LispRETF, "RETF", "l.retf", 0, false},
		{LispHALT, "HALT", "op.halt", 0, false},
	})
	if err != nil {
		return nil, err
	}
	return newProgram(&Program{
		Name: "lisp", Micro: p, Table: table,
		Boot: p.MustEntry(prefix + "boot"), Opcodes: ops, RestMB: MBSys,
	})
}

// emitLispHandlers writes the Lisp microcode. Conventions: MEMBASE rests at
// MBSys (the memory stack at rSP, the heap, the binding stack at rGP, and
// the frame heap are all absolute); frame-local reads ride an explicit
// MBLocal on the fetch. T and Q are scratch. rSP points at the next free
// stack word; an item pushes as tag then value.
func emitLispHandlers(b *masm.Builder) {
	jump := masm.IFUJump()
	spUp := masm.I{A: microcode.ASelStore, R: rSP, ALU: microcode.ALUAplus1, LC: microcode.LCLoadRM}
	spDown := masm.I{A: microcode.ASelRM, R: rSP, ALU: microcode.ALUAminus1, LC: microcode.LCLoadRM}

	// Type-error trap (stands in for raising a Lisp error).
	b.EmitAt("l.trap", masm.I{FF: microcode.FFHalt, Flow: masm.Self()})

	// PUSHK w: push [FIXNUM, w].
	b.EmitAt("l.pushk", masm.I{A: microcode.ASelIFUData, ALU: microcode.ALUA, LC: microcode.LCLoadT})
	tagPush := spUp
	tagPush.Const, tagPush.HasConst = TagFixnum, true
	b.Emit(tagPush)
	valPush := spUp
	valPush.B = microcode.BSelT
	valPush.Flow = jump
	b.Emit(valPush)

	// PUSHNIL: push [NIL, 0].
	nilPush := spUp
	nilPush.Const, nilPush.HasConst = TagNil, true
	b.EmitAt("l.pushnil", nilPush)
	nilPush2 := nilPush
	nilPush2.Flow = jump
	b.Emit(nilPush2)

	// PUSHL o: push the local item at frame word offset o.
	b.EmitAt("l.pushl", masm.I{A: microcode.ASelIFUData, ALU: microcode.ALUA,
		LC: microcode.LCLoadRM, R: rTmp})
	b.Emit(masm.I{A: microcode.ASelFetch, R: rTmp, ALU: microcode.ALUAplus1,
		LC: microcode.LCLoadRM, FF: microcode.FFMemBaseBase + MBLocal})
	b.Emit(masm.I{B: microcode.BSelMD, FF: microcode.FFPutQ})
	b.Emit(masm.I{A: microcode.ASelFetch, R: rTmp, FF: microcode.FFMemBaseBase + MBLocal})
	qPush := spUp
	qPush.B = microcode.BSelQ
	qPush.FF = microcode.FFMemBaseBase + MBSys // stack pushes are absolute
	b.Emit(qPush)
	mdPush := spUp
	mdPush.B = microcode.BSelMD
	mdPush.Flow = jump
	b.Emit(mdPush)

	// POPL o: pop the top item into the local at word offset o.
	b.EmitAt("l.popl", masm.I{A: microcode.ASelIFUData, ALU: microcode.ALUA,
		LC: microcode.LCLoadRM, R: rTmp})
	b.Emit(masm.I{A: microcode.ASelRM, R: rTmp, ALU: microcode.ALUAplus1,
		LC: microcode.LCLoadRM, FF: microcode.FFRMDestBase + rTmp2})
	b.Emit(spDown)
	b.Emit(masm.I{A: microcode.ASelFetch, R: rSP}) // value
	b.Emit(masm.I{A: microcode.ASelStore, R: rTmp2, B: microcode.BSelMD,
		FF: microcode.FFMemBaseBase + MBLocal})
	down2 := spDown
	down2.FF = microcode.FFMemBaseBase + MBSys
	b.Emit(down2)
	b.Emit(masm.I{A: microcode.ASelFetch, R: rSP}) // tag
	b.Emit(masm.I{A: microcode.ASelStore, R: rTmp, B: microcode.BSelMD,
		FF: microcode.FFMemBaseBase + MBLocal})
	b.Emit(masm.I{FF: microcode.FFMemBaseBase + MBSys, Flow: jump})

	// Fixnum arithmetic with runtime checks ("Lisp does runtime checking
	// of parameters", §7).
	arith := func(label string, fn microcode.ALUFn) {
		b.EmitAt(label, spDown)
		b.Emit(masm.I{A: microcode.ASelFetch, R: rSP}) // val2
		b.Emit(masm.I{ALU: microcode.ALUB, B: microcode.BSelMD, LC: microcode.LCLoadT})
		b.Emit(spDown)
		b.Emit(masm.I{A: microcode.ASelFetch, R: rSP}) // tag2
		b.Emit(masm.I{A: microcode.ASelMD, Const: TagFixnum, HasConst: true,
			ALU:  microcode.ALUAminusB,
			Flow: masm.Branch(microcode.CondALUZero, label+".trap1", label+".ok1")})
		b.EmitAt(label+".trap1", masm.I{Flow: masm.Goto("l.trap")})
		b.EmitAt(label+".ok1", spDown)
		b.Emit(masm.I{A: microcode.ASelFetch, R: rSP}) // val1
		b.Emit(masm.I{A: microcode.ASelMD, B: microcode.BSelT, ALU: fn, LC: microcode.LCLoadT})
		b.Emit(spDown)
		b.Emit(masm.I{A: microcode.ASelFetch, R: rSP}) // tag1
		b.Emit(masm.I{A: microcode.ASelMD, Const: TagFixnum, HasConst: true,
			ALU:  microcode.ALUAminusB,
			Flow: masm.Branch(microcode.CondALUZero, label+".trap2", label+".ok2")})
		b.EmitAt(label+".trap2", masm.I{Flow: masm.Goto("l.trap")})
		ok2 := spUp
		ok2.Const, ok2.HasConst = TagFixnum, true
		b.EmitAt(label+".ok2", ok2)
		fin := spUp
		fin.B = microcode.BSelT
		fin.Flow = jump
		b.Emit(fin)
	}
	// val1 fn val2: for SUB we want first-pushed minus second-pushed:
	// A=val1 (fetched second), B=T=val2.
	arith("l.addf", microcode.ALUAplusB)
	arith("l.subf", microcode.ALUAminusB)

	// CAR/CDR: pop a CONS item, push the selected half of the cell.
	// A cell is four absolute words [car tag, car val, cdr tag, cdr val].
	carcdr := func(label string, offset uint16) {
		b.EmitAt(label, spDown)
		b.Emit(masm.I{A: microcode.ASelFetch, R: rSP}) // value = cell addr
		if offset == 0 {
			b.Emit(masm.I{ALU: microcode.ALUB, B: microcode.BSelMD, LC: microcode.LCLoadRM, R: rTmp})
		} else {
			b.Emit(masm.I{A: microcode.ASelMD, Const: offset, HasConst: true,
				ALU: microcode.ALUAplusB, LC: microcode.LCLoadRM, R: rTmp})
		}
		b.Emit(spDown)
		b.Emit(masm.I{A: microcode.ASelFetch, R: rSP}) // tag
		b.Emit(masm.I{A: microcode.ASelMD, Const: TagCons, HasConst: true,
			ALU:  microcode.ALUAminusB,
			Flow: masm.Branch(microcode.CondALUZero, label+".trap", label+".ok")})
		b.EmitAt(label+".trap", masm.I{Flow: masm.Goto("l.trap")})
		b.EmitAt(label+".ok", masm.I{A: microcode.ASelFetch, R: rTmp,
			ALU: microcode.ALUAplus1, LC: microcode.LCLoadRM})
		mdp := spUp
		mdp.B = microcode.BSelMD
		b.Emit(mdp)
		b.Emit(masm.I{A: microcode.ASelFetch, R: rTmp})
		mdp2 := spUp
		mdp2.B = microcode.BSelMD
		mdp2.Flow = jump
		b.Emit(mdp2)
	}
	carcdr("l.car", 0)
	carcdr("l.cdr", 2)

	// CONS: pop cdr then car, fill a fresh cell from the heap pointer,
	// push the CONS item.
	b.EmitAt("l.cons", masm.I{Const: HPHead, HasConst: true, ALU: microcode.ALUB,
		LC: microcode.LCLoadRM, R: rVal})
	b.Emit(masm.I{A: microcode.ASelFetch, R: rVal})
	b.Emit(masm.I{ALU: microcode.ALUB, B: microcode.BSelMD, LC: microcode.LCLoadRM, R: rTmp})
	b.Emit(masm.I{A: microcode.ASelMD, Const: 4, HasConst: true,
		ALU: microcode.ALUAplusB, LC: microcode.LCLoadRM, R: rTmp2})
	b.Emit(masm.I{B: microcode.BSelRM, R: rTmp2, FF: microcode.FFPutQ})
	b.Emit(masm.I{A: microcode.ASelStore, R: rVal, B: microcode.BSelQ}) // heap ptr += 4
	// cdr value → cell+3, cdr tag → cell+2, car value → cell+1, car tag → cell+0.
	b.Emit(masm.I{A: microcode.ASelRM, R: rTmp2, ALU: microcode.ALUAminus1,
		LC: microcode.LCLoadRM, FF: microcode.FFRMDestBase + rVal2})
	for i := 0; i < 4; i++ {
		b.Emit(spDown)
		b.Emit(masm.I{A: microcode.ASelFetch, R: rSP})
		st := masm.I{A: microcode.ASelStore, R: rVal2, B: microcode.BSelMD}
		if i < 3 {
			st.ALU = microcode.ALUAminus1
			st.LC = microcode.LCLoadRM
		}
		b.Emit(st)
	}
	consTag := spUp
	consTag.Const, consTag.HasConst = TagCons, true
	b.Emit(consTag)
	b.Emit(masm.I{B: microcode.BSelRM, R: rTmp, FF: microcode.FFPutQ})
	consVal := spUp
	consVal.B = microcode.BSelQ
	consVal.Flow = jump
	b.Emit(consVal)

	// JMP w.
	b.EmitAt("l.jmp", masm.I{A: microcode.ASelIFUData, ALU: microcode.ALUA, LC: microcode.LCLoadT})
	b.Emit(masm.I{B: microcode.BSelT, FF: microcode.FFIFUReset})
	b.Emit(masm.I{Flow: jump})

	// JNIL w: pop an item; jump when its tag is NIL.
	b.EmitAt("l.jnil", spDown)
	b.Emit(spDown)
	b.Emit(masm.I{A: microcode.ASelFetch, R: rSP}) // tag
	b.Emit(masm.I{A: microcode.ASelMD, ALU: microcode.ALUA,
		Flow: masm.Branch(microcode.CondALUZero, "l.jnil.no", "l.jnil.yes")})
	b.EmitAt("l.jnil.no", masm.I{Flow: jump})
	b.EmitAt("l.jnil.yes", masm.I{A: microcode.ASelIFUData, ALU: microcode.ALUA, LC: microcode.LCLoadT})
	b.Emit(masm.I{B: microcode.BSelT, FF: microcode.FFIFUReset})
	b.Emit(masm.I{Flow: jump})

	// JZF w: pop an item; jump when its value word is zero (the numeric
	// test the Lisp compiler builds conditionals from).
	b.EmitAt("l.jzf", spDown)
	b.Emit(spDown)
	b.Emit(masm.I{A: microcode.ASelRM, R: rSP, ALU: microcode.ALUAplus1,
		LC: microcode.LCLoadRM, FF: microcode.FFRMDestBase + rTmp})
	b.Emit(masm.I{A: microcode.ASelFetch, R: rTmp}) // the value word
	b.Emit(masm.I{A: microcode.ASelMD, ALU: microcode.ALUA,
		Flow: masm.Branch(microcode.CondALUZero, "l.jzf.no", "l.jzf.yes")})
	b.EmitAt("l.jzf.no", masm.I{Flow: jump})
	b.EmitAt("l.jzf.yes", masm.I{A: microcode.ASelIFUData, ALU: microcode.ALUA, LC: microcode.LCLoadT})
	b.Emit(masm.I{B: microcode.BSelT, FF: microcode.FFIFUReset})
	b.Emit(masm.I{Flow: jump})

	emitLispCall(b, jump)
	emitLispReturn(b, jump)
}

// emitLispCall writes CALLF w: w is the word address (in MBGlobal) of a
// function header {entry byte PC, nargs, param symbol addresses...}.
// The call allocates a frame, saves the caller's context, then for each
// argument (popped from the memory stack) saves the parameter symbol's old
// value cell on the binding stack, sets the new shallow binding, and copies
// the argument into the frame. Frame: [0]=L, [1]=retPC, [2]=param list
// address, [3]=nargs, [4..]=argument items in pop order.
func emitLispCall(b *masm.Builder, jump masm.Flow) {
	spDown := masm.I{A: microcode.ASelRM, R: rSP, ALU: microcode.ALUAminus1, LC: microcode.LCLoadRM}
	b.EmitAt("l.callf", masm.I{A: microcode.ASelIFUData, ALU: microcode.ALUA,
		LC: microcode.LCLoadRM, R: rHdr})
	b.Emit(masm.I{A: microcode.ASelFetch, R: rHdr, ALU: microcode.ALUAplus1,
		LC: microcode.LCLoadRM, FF: microcode.FFMemBaseBase + MBGlobal})
	b.Emit(masm.I{ALU: microcode.ALUB, B: microcode.BSelMD, LC: microcode.LCLoadRM, R: rPC})
	b.Emit(masm.I{A: microcode.ASelFetch, R: rHdr, ALU: microcode.ALUAplus1,
		LC: microcode.LCLoadRM, FF: microcode.FFMemBaseBase + MBGlobal})
	b.Emit(masm.I{B: microcode.BSelMD, FF: microcode.FFPutCount})
	// Allocate a frame (zero free-list head = exhausted: trap).
	b.Emit(masm.I{A: microcode.ASelFetch, R: rAV, FF: microcode.FFMemBaseBase + MBSys})
	b.Emit(masm.I{ALU: microcode.ALUB, B: microcode.BSelMD, LC: microcode.LCLoadRM, R: rFB,
		Flow: masm.Branch(microcode.CondALUZero, "l.callf.ok", "l.callf.exh")})
	b.EmitAt("l.callf.exh", masm.I{Flow: masm.Goto("l.trap")})
	b.EmitAt("l.callf.ok", masm.I{ALU: microcode.ALUB, B: microcode.BSelMD, LC: microcode.LCLoadRM, R: rNew})
	b.Emit(masm.I{A: microcode.ASelFetch, R: rFB})
	b.Emit(masm.I{A: microcode.ASelStore, R: rAV, B: microcode.BSelMD})
	// Save caller context.
	b.Emit(masm.I{A: microcode.ASelRM, R: rL, ALU: microcode.ALUA, LC: microcode.LCLoadT})
	b.Emit(masm.I{A: microcode.ASelStore, R: rNew, B: microcode.BSelT,
		ALU: microcode.ALUAplus1, LC: microcode.LCLoadRM})
	b.Emit(masm.I{FF: microcode.FFGetMacroPC, LC: microcode.LCLoadT})
	b.Emit(masm.I{A: microcode.ASelStore, R: rNew, B: microcode.BSelT,
		ALU: microcode.ALUAplus1, LC: microcode.LCLoadRM})
	b.Emit(masm.I{B: microcode.BSelRM, R: rHdr, FF: microcode.FFPutQ})
	b.Emit(masm.I{A: microcode.ASelStore, R: rNew, B: microcode.BSelQ,
		ALU: microcode.ALUAplus1, LC: microcode.LCLoadRM})
	b.Emit(masm.I{FF: microcode.FFGetCount, LC: microcode.LCLoadT})
	b.Emit(masm.I{A: microcode.ASelStore, R: rNew, B: microcode.BSelT,
		ALU: microcode.ALUAplus1, LC: microcode.LCLoadRM})
	// Argument binding loop.
	b.EmitAt("l.callf.head", masm.I{Flow: masm.Branch(microcode.CondCountNZ, "l.callf.fin", "l.callf.arg")})
	b.EmitAt("l.callf.arg", masm.I{A: microcode.ASelFetch, R: rHdr,
		ALU: microcode.ALUAplus1, LC: microcode.LCLoadRM, FF: microcode.FFMemBaseBase + MBGlobal})
	b.Emit(masm.I{ALU: microcode.ALUB, B: microcode.BSelMD, LC: microcode.LCLoadRM, R: rVal,
		FF: microcode.FFMemBaseBase + MBSys})
	b.Emit(spDown)
	b.Emit(masm.I{A: microcode.ASelFetch, R: rSP}) // arg value
	b.Emit(masm.I{ALU: microcode.ALUB, B: microcode.BSelMD, LC: microcode.LCLoadT})
	b.Emit(spDown)
	b.Emit(masm.I{A: microcode.ASelFetch, R: rSP}) // arg tag
	b.Emit(masm.I{B: microcode.BSelMD, FF: microcode.FFPutQ})
	b.Emit(masm.I{A: microcode.ASelRM, R: rVal, ALU: microcode.ALUAplus1,
		LC: microcode.LCLoadRM, FF: microcode.FFRMDestBase + rVal2})
	b.Emit(masm.I{A: microcode.ASelFetch, R: rVal}) // old tag
	b.Emit(masm.I{A: microcode.ASelStore, R: rGP, B: microcode.BSelMD,
		ALU: microcode.ALUAplus1, LC: microcode.LCLoadRM})
	b.Emit(masm.I{A: microcode.ASelFetch, R: rVal2}) // old value
	b.Emit(masm.I{A: microcode.ASelStore, R: rGP, B: microcode.BSelMD,
		ALU: microcode.ALUAplus1, LC: microcode.LCLoadRM})
	b.Emit(masm.I{A: microcode.ASelStore, R: rVal, B: microcode.BSelQ})  // new tag
	b.Emit(masm.I{A: microcode.ASelStore, R: rVal2, B: microcode.BSelT}) // new value
	b.Emit(masm.I{A: microcode.ASelStore, R: rNew, B: microcode.BSelQ,
		ALU: microcode.ALUAplus1, LC: microcode.LCLoadRM})
	b.Emit(masm.I{A: microcode.ASelStore, R: rNew, B: microcode.BSelT,
		ALU: microcode.ALUAplus1, LC: microcode.LCLoadRM, Flow: masm.Goto("l.callf.head")})
	// Rebase and transfer.
	b.EmitAt("l.callf.fin", masm.I{A: microcode.ASelRM, R: rFB, ALU: microcode.ALUA,
		LC: microcode.LCLoadRM, FF: microcode.FFRMDestBase + rL})
	b.Emit(masm.I{FF: microcode.FFMemBaseBase + MBLocal})
	b.Emit(masm.I{B: microcode.BSelRM, R: rL, FF: microcode.FFPutBaseLo})
	b.Emit(masm.I{FF: microcode.FFMemBaseBase + MBSys})
	b.Emit(masm.I{B: microcode.BSelRM, R: rPC, FF: microcode.FFIFUReset})
	b.Emit(masm.I{Flow: jump})
}

// emitLispReturn writes RETF: restore the caller's frame and PC, undo this
// call's shallow bindings (walking the parameter list and the binding-stack
// records in step), and free the frame.
func emitLispReturn(b *masm.Builder, jump masm.Flow) {
	b.EmitAt("l.retf", masm.I{A: microcode.ASelFetch, R: rZero,
		FF: microcode.FFMemBaseBase + MBLocal})
	b.Emit(masm.I{ALU: microcode.ALUB, B: microcode.BSelMD, LC: microcode.LCLoadRM, R: rTmp,
		FF: microcode.FFMemBaseBase + MBSys})
	b.Emit(masm.I{A: microcode.ASelFetch, R: rOne, FF: microcode.FFMemBaseBase + MBLocal})
	b.Emit(masm.I{ALU: microcode.ALUB, B: microcode.BSelMD, LC: microcode.LCLoadRM, R: rPC,
		FF: microcode.FFMemBaseBase + MBSys})
	b.Emit(masm.I{A: microcode.ASelRM, R: rOne, ALU: microcode.ALUAplus1,
		LC: microcode.LCLoadRM, FF: microcode.FFRMDestBase + rVal})
	b.Emit(masm.I{A: microcode.ASelFetch, R: rVal, ALU: microcode.ALUAplus1,
		LC: microcode.LCLoadRM, FF: microcode.FFMemBaseBase + MBLocal}) // frame[2]: param list
	b.Emit(masm.I{ALU: microcode.ALUB, B: microcode.BSelMD, LC: microcode.LCLoadRM, R: rHdr,
		FF: microcode.FFMemBaseBase + MBSys})
	b.Emit(masm.I{A: microcode.ASelFetch, R: rVal, FF: microcode.FFMemBaseBase + MBLocal}) // frame[3]: nargs
	b.Emit(masm.I{B: microcode.BSelMD, FF: microcode.FFPutCount})
	// rVal2 ← rGP − 2·nargs: the start of this call's binding records;
	// rGP rewinds there.
	b.Emit(masm.I{ALU: microcode.ALUB, B: microcode.BSelMD, LC: microcode.LCLoadT,
		FF: microcode.FFMemBaseBase + MBSys})
	b.Emit(masm.I{A: microcode.ASelT, B: microcode.BSelT, ALU: microcode.ALUAplusB,
		LC: microcode.LCLoadT})
	b.Emit(masm.I{A: microcode.ASelRM, R: rGP, B: microcode.BSelT, ALU: microcode.ALUAminusB,
		LC: microcode.LCLoadRM, FF: microcode.FFRMDestBase + rVal2})
	b.Emit(masm.I{A: microcode.ASelRM, R: rVal2, ALU: microcode.ALUA,
		LC: microcode.LCLoadRM, FF: microcode.FFRMDestBase + rGP})
	// Unbind loop: param symbols forward, binding records forward.
	b.EmitAt("l.retf.head", masm.I{Flow: masm.Branch(microcode.CondCountNZ, "l.retf.fin", "l.retf.un")})
	b.EmitAt("l.retf.un", masm.I{A: microcode.ASelFetch, R: rHdr,
		ALU: microcode.ALUAplus1, LC: microcode.LCLoadRM, FF: microcode.FFMemBaseBase + MBGlobal})
	b.Emit(masm.I{ALU: microcode.ALUB, B: microcode.BSelMD, LC: microcode.LCLoadRM, R: rVal,
		FF: microcode.FFMemBaseBase + MBSys})
	b.Emit(masm.I{A: microcode.ASelFetch, R: rVal2, ALU: microcode.ALUAplus1,
		LC: microcode.LCLoadRM}) // old tag
	b.Emit(masm.I{A: microcode.ASelStore, R: rVal, B: microcode.BSelMD,
		ALU: microcode.ALUAplus1, LC: microcode.LCLoadRM})
	b.Emit(masm.I{A: microcode.ASelFetch, R: rVal2, ALU: microcode.ALUAplus1,
		LC: microcode.LCLoadRM}) // old value
	b.Emit(masm.I{A: microcode.ASelStore, R: rVal, B: microcode.BSelMD,
		Flow: masm.Goto("l.retf.head")})
	// Free the frame, restore the caller.
	b.EmitAt("l.retf.fin", masm.I{B: microcode.BSelRM, R: rL, FF: microcode.FFPutQ})
	b.Emit(masm.I{A: microcode.ASelFetch, R: rAV})
	b.Emit(masm.I{A: microcode.ASelStore, R: rL, B: microcode.BSelMD})
	b.Emit(masm.I{A: microcode.ASelStore, R: rAV, B: microcode.BSelQ})
	b.Emit(masm.I{A: microcode.ASelRM, R: rTmp, ALU: microcode.ALUA,
		LC: microcode.LCLoadRM, FF: microcode.FFRMDestBase + rL})
	b.Emit(masm.I{FF: microcode.FFMemBaseBase + MBLocal})
	b.Emit(masm.I{B: microcode.BSelRM, R: rL, FF: microcode.FFPutBaseLo})
	b.Emit(masm.I{FF: microcode.FFMemBaseBase + MBSys})
	b.Emit(masm.I{B: microcode.BSelRM, R: rPC, FF: microcode.FFIFUReset})
	b.Emit(masm.I{Flow: jump})
}
