package emulator

import (
	"dorado/internal/masm"
	"dorado/internal/microcode"
)

// Smalltalk object conventions. Oops are single words: low bit 1 =
// SmallInteger (value in the upper 15 bits), low bit 0 = pointer to an
// object whose word 0 is its class oop. A class object is
// {metaclass, method-dictionary address, dictionary entry count}; a method
// dictionary is an array of {selector, method-header address} pairs probed
// linearly; a method header is {entry byte PC, unused}.
const (
	// SIClassSlot is the sys-page word holding the SmallInteger class
	// address (message sends to tagged integers look their class up here).
	SIClassSlot = 0x0018
)

// Smalltalk opcode bytes. The send is the point: a Smalltalk-76-style
// dynamic dispatch costs a class fetch, a dictionary probe loop, and a
// context activation — tens of microinstructions even on this hardware.
const (
	STPUSHK    = 0x01 // PUSHK w:  push SmallInteger literal    (2 µinst)
	STPUSHSELF = 0x02 // PUSHSELF: push the receiver            (3 µinst)
	STPUSHL    = 0x03 // PUSHL n:  push frame temp              (2 µinst)
	STSTL      = 0x04 // STL n:    pop into frame temp          (1 µinst)
	STPUSHIV   = 0x05 // PUSHIV n: push receiver's field n+1    (6 µinst)
	STSTIV     = 0x06 // STIV n:   pop into receiver's field    (6 µinst)
	STSEND     = 0x07 // SEND s,n: dynamic dispatch             (≈45+5·probe µinst)
	STRETTOP   = 0x08 // RETTOP:   return, top of stack = value (12 µinst)
	STADDI     = 0x09 // ADDI:     SmallInteger add, checked    (5 µinst)
	STHALT     = 0x1F
)

// Smalltalk returns the Smalltalk emulator, assembled on first use. Every
// caller shares the one Program and only reads it.
func Smalltalk() *Program { return smalltalk() }

var smalltalk = bundled(emitSmalltalkHandlers, finishSmalltalk)

// finishSmalltalk builds the decode table from the placed image.
func finishSmalltalk(p *masm.Program, prefix string) (*Program, error) {
	table, ops, err := buildTable(p, prefix, []opdef{
		{STPUSHK, "PUSHK", "s.pushk", 2, true},
		{STPUSHSELF, "PUSHSELF", "s.pushself", 0, false},
		{STPUSHL, "PUSHL", "s.pushl", 1, false},
		{STSTL, "STL", "s.stl", 1, false},
		{STPUSHIV, "PUSHIV", "s.pushiv", 1, false},
		{STSTIV, "STIV", "s.stiv", 1, false},
		{STSEND, "SEND", "s.send", 2, false}, // selector byte, nargs byte
		{STRETTOP, "RETTOP", "s.rettop", 0, false},
		{STADDI, "ADDI", "s.addi", 0, false},
		{STHALT, "HALT", "op.halt", 0, false},
	})
	if err != nil {
		return nil, err
	}
	return newProgram(&Program{
		Name: "smalltalk", Micro: p, Table: table,
		Boot: p.MustEntry(prefix + "boot"), Opcodes: ops, RestMB: MBLocal,
	})
}

// emitSmalltalkHandlers writes the Smalltalk microcode. The hardware stack
// is the evaluation stack (shared across contexts); frames hold
// [0]=L, [1]=retPC, [2]=receiver, [3..]=args in pop order, then temps;
// MEMBASE rests at MBLocal.
func emitSmalltalkHandlers(b *masm.Builder) {
	jump := masm.IFUJump()

	b.EmitAt("s.trap", masm.I{FF: microcode.FFHalt, Flow: masm.Self()})

	// PUSHK w: push the tagged SmallInteger (w<<1 | 1).
	b.EmitAt("s.pushk", masm.I{A: microcode.ASelIFUData, ALU: microcode.ALUA, LC: microcode.LCLoadT})
	b.Emit(masm.I{A: microcode.ASelT, B: microcode.BSelT, ALU: microcode.ALUAplusB,
		LC: microcode.LCLoadT})
	b.Emit(masm.I{A: microcode.ASelT, ALU: microcode.ALUAplus1, LC: microcode.LCLoadRM,
		Block: true, R: push, Flow: jump})

	// PUSHSELF.
	b.EmitAt("s.pushself", masm.I{A: microcode.ASelRM, R: rOne, ALU: microcode.ALUAplus1,
		LC: microcode.LCLoadRM, FF: microcode.FFRMDestBase + rVal})
	b.Emit(masm.I{A: microcode.ASelFetch, R: rVal})
	b.Emit(masm.I{ALU: microcode.ALUB, B: microcode.BSelMD, LC: microcode.LCLoadRM,
		Block: true, R: push, Flow: jump})

	// PUSHL / STL (frame temps, like Mesa locals).
	b.EmitAt("s.pushl", masm.I{A: microcode.ASelFetchIFU})
	b.Emit(masm.I{ALU: microcode.ALUB, B: microcode.BSelMD, LC: microcode.LCLoadRM,
		Block: true, R: push, Flow: jump})
	b.EmitAt("s.stl", masm.I{A: microcode.ASelStoreIFU, B: microcode.BSelRM,
		Block: true, R: pop, Flow: jump})

	// PUSHIV n: operand is precompiled as n+1 (field offset past the class
	// word). The receiver oop is an absolute address.
	b.EmitAt("s.pushiv", masm.I{A: microcode.ASelRM, R: rOne, ALU: microcode.ALUAplus1,
		LC: microcode.LCLoadRM, FF: microcode.FFRMDestBase + rVal})
	b.Emit(masm.I{A: microcode.ASelFetch, R: rVal})
	b.Emit(masm.I{ALU: microcode.ALUB, B: microcode.BSelMD, LC: microcode.LCLoadRM, R: rTmp})
	b.Emit(masm.I{A: microcode.ASelIFUData, B: microcode.BSelRM, R: rTmp,
		ALU: microcode.ALUAplusB, LC: microcode.LCLoadRM})
	b.Emit(masm.I{A: microcode.ASelFetch, R: rTmp, FF: microcode.FFMemBaseBase + MBSys})
	b.Emit(masm.I{ALU: microcode.ALUB, B: microcode.BSelMD, LC: microcode.LCLoadRM,
		Block: true, R: push, FF: microcode.FFMemBaseBase + MBLocal, Flow: jump})

	// STIV n: pop a value into the receiver's field.
	b.EmitAt("s.stiv", masm.I{A: microcode.ASelRM, R: rOne, ALU: microcode.ALUAplus1,
		LC: microcode.LCLoadRM, FF: microcode.FFRMDestBase + rVal})
	b.Emit(masm.I{A: microcode.ASelFetch, R: rVal})
	b.Emit(masm.I{ALU: microcode.ALUB, B: microcode.BSelMD, LC: microcode.LCLoadRM, R: rTmp})
	b.Emit(masm.I{A: microcode.ASelIFUData, B: microcode.BSelRM, R: rTmp,
		ALU: microcode.ALUAplusB, LC: microcode.LCLoadRM})
	b.Emit(masm.I{ALU: microcode.ALUA, LC: microcode.LCLoadT, Block: true, R: pop})
	b.Emit(masm.I{A: microcode.ASelStore, R: rTmp, B: microcode.BSelT,
		FF: microcode.FFMemBaseBase + MBSys})
	b.Emit(masm.I{FF: microcode.FFMemBaseBase + MBLocal, Flow: jump})

	emitSmalltalkSend(b, jump)

	// RETTOP: the result stays on the (shared) evaluation stack; restore
	// the caller's context and free the frame — same shape as Mesa RET.
	b.EmitAt("s.rettop", masm.I{A: microcode.ASelFetch, R: rZero})
	b.Emit(masm.I{ALU: microcode.ALUB, B: microcode.BSelMD, LC: microcode.LCLoadRM, R: rTmp})
	b.Emit(masm.I{A: microcode.ASelFetch, R: rOne})
	b.Emit(masm.I{ALU: microcode.ALUB, B: microcode.BSelMD, LC: microcode.LCLoadT})
	b.Emit(masm.I{B: microcode.BSelRM, R: rL, FF: microcode.FFPutQ})
	b.Emit(masm.I{A: microcode.ASelFetch, R: rAV, FF: microcode.FFMemBaseBase + MBSys})
	b.Emit(masm.I{A: microcode.ASelStore, R: rL, B: microcode.BSelMD})
	b.Emit(masm.I{A: microcode.ASelStore, R: rAV, B: microcode.BSelQ})
	b.Emit(masm.I{A: microcode.ASelRM, R: rTmp, ALU: microcode.ALUA,
		LC: microcode.LCLoadRM, FF: microcode.FFRMDestBase + rL})
	b.Emit(masm.I{FF: microcode.FFMemBaseBase + MBLocal})
	b.Emit(masm.I{B: microcode.BSelRM, R: rL, FF: microcode.FFPutBaseLo})
	b.Emit(masm.I{B: microcode.BSelT, FF: microcode.FFIFUReset})
	b.Emit(masm.I{Flow: jump})

	// ADDI: tag-checked SmallInteger add: (2x+1)+(2y+1)-1 = 2(x+y)+1.
	// A zero (tag bit clear) AND result means a pointer operand: trap.
	b.EmitAt("s.addi", masm.I{ALU: microcode.ALUA, LC: microcode.LCLoadT, Block: true, R: pop})
	b.Emit(masm.I{A: microcode.ASelT, Const: 1, HasConst: true, ALU: microcode.ALUAandB,
		Flow: masm.Branch(microcode.CondALUZero, "s.addi.t1", "s.addi.bad1")})
	b.EmitAt("s.addi.bad1", masm.I{Flow: masm.Goto("s.trap")})
	b.EmitAt("s.addi.t1", masm.I{Const: 1, HasConst: true, B: microcode.BSelRM,
		ALU: microcode.ALUAandB, Block: true, R: top,
		Flow: masm.Branch(microcode.CondALUZero, "s.addi.t2", "s.addi.bad2")})
	b.EmitAt("s.addi.bad2", masm.I{Flow: masm.Goto("s.trap")})
	b.EmitAt("s.addi.t2", masm.I{A: microcode.ASelT, ALU: microcode.ALUAminus1, LC: microcode.LCLoadT})
	b.Emit(masm.I{B: microcode.BSelT, ALU: microcode.ALUAplusB, LC: microcode.LCLoadRM,
		Block: true, R: top, Flow: jump})
}

// emitSmalltalkSend writes SEND selector,nargs.
func emitSmalltalkSend(b *masm.Builder, jump masm.Flow) {
	// Setup: rVal = selector, Q = nargs.
	b.EmitAt("s.send", masm.I{A: microcode.ASelIFUData, ALU: microcode.ALUA,
		LC: microcode.LCLoadRM, R: rVal})
	b.Emit(masm.I{A: microcode.ASelIFUData, ALU: microcode.ALUA, LC: microcode.LCLoadT})
	b.Emit(masm.I{B: microcode.BSelT, FF: microcode.FFPutQ})
	// Receiver sits nargs below the stack top: temporarily rewind STACKPTR
	// (a stack-mode read/write always addresses the top, so deep access
	// goes through the pointer, §6.3.3).
	b.Emit(masm.I{FF: microcode.FFGetStackPtr, LC: microcode.LCLoadRM, R: rTmp})
	b.Emit(masm.I{A: microcode.ASelRM, R: rTmp, B: microcode.BSelQ,
		ALU: microcode.ALUAminusB, LC: microcode.LCLoadT})
	b.Emit(masm.I{B: microcode.BSelT, FF: microcode.FFPutStackPtr})
	b.Emit(masm.I{ALU: microcode.ALUA, Block: true, R: top, LC: microcode.LCLoadT}) // T = receiver
	b.Emit(masm.I{B: microcode.BSelRM, R: rTmp, FF: microcode.FFPutStackPtr})
	b.Emit(masm.I{A: microcode.ASelT, ALU: microcode.ALUA,
		LC: microcode.LCLoadRM, R: rVal2}) // rVal2 = receiver oop
	// Class lookup: a zero AND result (tag bit clear) is a pointer → obj[0];
	// otherwise the receiver is a tagged SmallInteger.
	b.Emit(masm.I{A: microcode.ASelRM, R: rVal2, Const: 1, HasConst: true,
		ALU:  microcode.ALUAandB,
		Flow: masm.Branch(microcode.CondALUZero, "s.send.int", "s.send.ptr")})
	b.EmitAt("s.send.ptr", masm.I{A: microcode.ASelFetch, R: rVal2,
		FF: microcode.FFMemBaseBase + MBSys})
	b.Emit(masm.I{ALU: microcode.ALUB, B: microcode.BSelMD, LC: microcode.LCLoadRM, R: rTmp,
		Flow: masm.Goto("s.send.dict")})
	b.EmitAt("s.send.int", masm.I{Const: SIClassSlot, HasConst: true, ALU: microcode.ALUB,
		LC: microcode.LCLoadRM, R: rTmp})
	b.Emit(masm.I{A: microcode.ASelFetch, R: rTmp, FF: microcode.FFMemBaseBase + MBSys})
	b.Emit(masm.I{ALU: microcode.ALUB, B: microcode.BSelMD, LC: microcode.LCLoadRM, R: rTmp})
	// Method dictionary: class[0] = superclass (0 = none), class[1] = dict
	// address, class[2] = entry count. rGP remembers the class being
	// searched so a miss can continue up the superclass chain.
	b.EmitAt("s.send.dict", masm.I{A: microcode.ASelRM, R: rTmp, ALU: microcode.ALUA,
		LC: microcode.LCLoadRM, FF: microcode.FFRMDestBase + rGP})
	b.Emit(masm.I{A: microcode.ASelRM, R: rTmp, ALU: microcode.ALUAplus1,
		LC: microcode.LCLoadRM})
	b.Emit(masm.I{A: microcode.ASelFetch, R: rTmp, ALU: microcode.ALUAplus1,
		LC: microcode.LCLoadRM})
	b.Emit(masm.I{ALU: microcode.ALUB, B: microcode.BSelMD, LC: microcode.LCLoadRM, R: rNew})
	b.Emit(masm.I{A: microcode.ASelFetch, R: rTmp})
	b.Emit(masm.I{B: microcode.BSelMD, FF: microcode.FFPutCount})
	// Linear probe; a miss walks to the superclass, and "message not
	// understood" traps only at the top of the chain.
	b.EmitAt("s.send.head", masm.I{Flow: masm.Branch(microcode.CondCountNZ, "s.send.fail", "s.send.probe")})
	b.EmitAt("s.send.fail", masm.I{A: microcode.ASelFetch, R: rGP})
	b.Emit(masm.I{ALU: microcode.ALUB, B: microcode.BSelMD, LC: microcode.LCLoadRM, R: rTmp,
		Flow: masm.Branch(microcode.CondALUZero, "s.send.super", "s.send.mnu")})
	b.EmitAt("s.send.mnu", masm.I{Flow: masm.Goto("s.trap")})
	b.EmitAt("s.send.super", masm.I{Flow: masm.Goto("s.send.dict")})
	b.EmitAt("s.send.probe", masm.I{A: microcode.ASelFetch, R: rNew,
		ALU: microcode.ALUAplus1, LC: microcode.LCLoadRM})
	b.Emit(masm.I{A: microcode.ASelMD, B: microcode.BSelRM, R: rVal,
		ALU:  microcode.ALUAminusB,
		Flow: masm.Branch(microcode.CondALUZero, "s.send.next", "s.send.hit")})
	b.EmitAt("s.send.next", masm.I{A: microcode.ASelRM, R: rNew, ALU: microcode.ALUAplus1,
		LC: microcode.LCLoadRM, Flow: masm.Goto("s.send.head")})
	b.EmitAt("s.send.hit", masm.I{A: microcode.ASelFetch, R: rNew})
	b.Emit(masm.I{ALU: microcode.ALUB, B: microcode.BSelMD, LC: microcode.LCLoadRM, R: rHdr})
	// Activate: allocate a frame (zero head = pool exhausted: trap), save
	// L/retPC/receiver, move nargs args.
	b.Emit(masm.I{A: microcode.ASelFetch, R: rAV})
	b.Emit(masm.I{ALU: microcode.ALUB, B: microcode.BSelMD, LC: microcode.LCLoadRM, R: rFB,
		Flow: masm.Branch(microcode.CondALUZero, "s.send.fok", "s.send.exh")})
	b.EmitAt("s.send.exh", masm.I{Flow: masm.Goto("s.trap")})
	b.EmitAt("s.send.fok", masm.I{ALU: microcode.ALUB, B: microcode.BSelMD, LC: microcode.LCLoadRM, R: rNew})
	b.Emit(masm.I{A: microcode.ASelFetch, R: rFB})
	b.Emit(masm.I{A: microcode.ASelStore, R: rAV, B: microcode.BSelMD})
	b.Emit(masm.I{A: microcode.ASelRM, R: rL, ALU: microcode.ALUA, LC: microcode.LCLoadT})
	b.Emit(masm.I{A: microcode.ASelStore, R: rNew, B: microcode.BSelT,
		ALU: microcode.ALUAplus1, LC: microcode.LCLoadRM})
	b.Emit(masm.I{FF: microcode.FFGetMacroPC, LC: microcode.LCLoadT})
	b.Emit(masm.I{A: microcode.ASelStore, R: rNew, B: microcode.BSelT,
		ALU: microcode.ALUAplus1, LC: microcode.LCLoadRM})
	b.Emit(masm.I{A: microcode.ASelRM, R: rVal2, ALU: microcode.ALUA, LC: microcode.LCLoadT})
	b.Emit(masm.I{A: microcode.ASelStore, R: rNew, B: microcode.BSelT,
		ALU: microcode.ALUAplus1, LC: microcode.LCLoadRM})
	// Move the arguments (COUNT was consumed by the probe loop; reload from Q).
	b.Emit(masm.I{B: microcode.BSelQ, FF: microcode.FFPutCount})
	b.EmitAt("s.send.ahead", masm.I{Flow: masm.Branch(microcode.CondCountNZ, "s.send.fin", "s.send.arg")})
	b.EmitAt("s.send.arg", masm.I{ALU: microcode.ALUA, LC: microcode.LCLoadT, Block: true, R: pop})
	b.Emit(masm.I{A: microcode.ASelStore, R: rNew, B: microcode.BSelT,
		ALU: microcode.ALUAplus1, LC: microcode.LCLoadRM, Flow: masm.Goto("s.send.ahead")})
	// Drop the receiver from the stack, rebase, fetch the entry PC, go.
	b.EmitAt("s.send.fin", masm.I{Block: true, R: pop})
	b.Emit(masm.I{A: microcode.ASelRM, R: rFB, ALU: microcode.ALUA,
		LC: microcode.LCLoadRM, FF: microcode.FFRMDestBase + rL})
	b.Emit(masm.I{FF: microcode.FFMemBaseBase + MBLocal})
	b.Emit(masm.I{B: microcode.BSelRM, R: rL, FF: microcode.FFPutBaseLo})
	b.Emit(masm.I{A: microcode.ASelFetch, R: rHdr, FF: microcode.FFMemBaseBase + MBGlobal})
	b.Emit(masm.I{ALU: microcode.ALUB, B: microcode.BSelMD, LC: microcode.LCLoadT,
		FF: microcode.FFMemBaseBase + MBLocal})
	b.Emit(masm.I{B: microcode.BSelT, FF: microcode.FFIFUReset})
	b.Emit(masm.I{Flow: jump})
}
