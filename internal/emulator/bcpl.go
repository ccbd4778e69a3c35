package emulator

import (
	"dorado/internal/masm"
	"dorado/internal/microcode"
)

// BCPL opcode bytes. The BCPL emulator (the Alto-compatibility instruction
// set's ancestor) is an accumulator machine: the task-specific T register
// *is* the accumulator, so simple loads and stores are one or two
// microinstructions, exactly like Mesa (§7 groups "Mesa (or BCPL)").
const (
	BCPLLDK  = 0x01 // LDK a:   ACC ← literal byte      (1 µinst)
	BCPLLDW  = 0x02 // LDW w:   ACC ← literal word      (1 µinst)
	BCPLLDL  = 0x03 // LDL a:   ACC ← local a           (2 µinst)
	BCPLSTL  = 0x04 // STL a:   local a ← ACC           (1 µinst)
	BCPLADDL = 0x05 // ADDL a:  ACC += local a          (2 µinst)
	BCPLSUBL = 0x06 // SUBL a:  ACC -= local a          (2 µinst)
	BCPLANDL = 0x07 // ANDL a                           (2 µinst)
	BCPLORL  = 0x08 // ORL a                            (2 µinst)
	BCPLADDK = 0x09 // ADDK a:  ACC += literal byte     (1 µinst)
	BCPLNEG  = 0x0A // NEG:     ACC = -ACC              (1 µinst)
	BCPLJMP  = 0x0B // JMP w                            (2 µinst + restart)
	BCPLJZ   = 0x0C // JZ w:    jump if ACC==0          (1 or 3 µinst)
	BCPLJNZ  = 0x0D // JNZ w                            (1 or 3 µinst)
	BCPLCALL = 0x0E // CALL w:  call; ACC carries arg   (≈16 µinst)
	BCPLRET  = 0x0F // RET:     return; ACC = result    (12 µinst)
	BCPLLDG  = 0x10 // LDG a:   ACC ← global a          (2 µinst)
	BCPLSTG  = 0x11 // STG a:   global a ← ACC          (2 µinst)
	BCPLLDIX = 0x12 // LDIX a:  ACC ← mem[local a + ACC] (5 µinst)
	BCPLHALT = 0x1F
)

// BCPL returns the BCPL emulator, assembled on first use. Every
// caller shares the one Program and only reads it.
func BCPL() *Program { return bcpl() }

var bcpl = bundled(emitBCPLHandlers, finishBCPL)

// finishBCPL builds the decode table from the placed (or relocated) image.
func finishBCPL(p *masm.Program, prefix string) (*Program, error) {
	table, ops, err := buildTable(p, prefix, []opdef{
		{BCPLLDK, "LDK", "b.ldk", 1, false},
		{BCPLLDW, "LDW", "b.ldw", 2, true},
		{BCPLLDL, "LDL", "b.ldl", 1, false},
		{BCPLSTL, "STL", "b.stl", 1, false},
		{BCPLADDL, "ADDL", "b.addl", 1, false},
		{BCPLSUBL, "SUBL", "b.subl", 1, false},
		{BCPLANDL, "ANDL", "b.andl", 1, false},
		{BCPLORL, "ORL", "b.orl", 1, false},
		{BCPLADDK, "ADDK", "b.addk", 1, false},
		{BCPLNEG, "NEG", "b.neg", 0, false},
		{BCPLJMP, "JMP", "b.jmp", 2, true},
		{BCPLJZ, "JZ", "b.jz", 2, true},
		{BCPLJNZ, "JNZ", "b.jnz", 2, true},
		{BCPLCALL, "CALL", "b.call", 2, true},
		{BCPLRET, "RET", "b.ret", 0, false},
		{BCPLLDG, "LDG", "b.ldg", 1, false},
		{BCPLSTG, "STG", "b.stg", 1, false},
		{BCPLLDIX, "LDIX", "b.ldix", 1, false},
		{BCPLHALT, "HALT", "op.halt", 0, false},
	})
	if err != nil {
		return nil, err
	}
	return newProgram(&Program{
		Name: "bcpl", Micro: p, Table: table,
		Boot: p.MustEntry(prefix + "boot"), Opcodes: ops, RestMB: MBLocal,
	})
}

// emitBCPLHandlers writes the BCPL microcode. Conventions: T is the
// accumulator (preserved across opcodes), MEMBASE rests at MBLocal, the
// one argument of a call travels in the accumulator.
func emitBCPLHandlers(b *masm.Builder) {
	jump := masm.IFUJump()

	b.EmitAt("b.ldk", masm.I{A: microcode.ASelIFUData, ALU: microcode.ALUA,
		LC: microcode.LCLoadT, Flow: jump})
	b.EmitAt("b.ldw", masm.I{A: microcode.ASelIFUData, ALU: microcode.ALUA,
		LC: microcode.LCLoadT, Flow: jump})

	b.EmitAt("b.ldl", masm.I{A: microcode.ASelFetchIFU})
	b.Emit(masm.I{ALU: microcode.ALUB, B: microcode.BSelMD, LC: microcode.LCLoadT, Flow: jump})

	// STL: one microinstruction — operand is the address, ACC the data.
	b.EmitAt("b.stl", masm.I{A: microcode.ASelStoreIFU, B: microcode.BSelT, Flow: jump})

	// ACC-memory operators.
	memop := func(label string, fn microcode.ALUFn) {
		b.EmitAt(label, masm.I{A: microcode.ASelFetchIFU})
		b.Emit(masm.I{A: microcode.ASelT, B: microcode.BSelMD, ALU: fn,
			LC: microcode.LCLoadT, Flow: jump})
	}
	memop("b.addl", microcode.ALUAplusB)
	memop("b.subl", microcode.ALUAminusB)
	memop("b.andl", microcode.ALUAandB)
	memop("b.orl", microcode.ALUAorB)

	b.EmitAt("b.addk", masm.I{A: microcode.ASelIFUData, B: microcode.BSelT,
		ALU: microcode.ALUAplusB, LC: microcode.LCLoadT, Flow: jump})
	b.EmitAt("b.neg", masm.I{A: microcode.ASelT, Const: 0, HasConst: true,
		ALU: microcode.ALUBminusA, LC: microcode.LCLoadT, Flow: jump})

	// Jumps keep the accumulator intact by staging the target in scratch RM.
	b.EmitAt("b.jmp", masm.I{A: microcode.ASelIFUData, ALU: microcode.ALUA,
		LC: microcode.LCLoadRM, R: rTmp})
	b.Emit(masm.I{B: microcode.BSelRM, R: rTmp, FF: microcode.FFIFUReset})
	b.Emit(masm.I{Flow: jump})

	condJump := func(label string, takenOnZero bool) {
		no, yes := label+".no", label+".yes"
		elseL, thenL := no, yes
		if !takenOnZero {
			elseL, thenL = yes, no
		}
		b.EmitAt(label, masm.I{A: microcode.ASelT, ALU: microcode.ALUA,
			Flow: masm.Branch(microcode.CondALUZero, elseL, thenL)})
		b.EmitAt(no, masm.I{Flow: jump})
		b.EmitAt(yes, masm.I{A: microcode.ASelIFUData, ALU: microcode.ALUA,
			LC: microcode.LCLoadRM, R: rTmp})
		b.Emit(masm.I{B: microcode.BSelRM, R: rTmp, FF: microcode.FFIFUReset})
		b.Emit(masm.I{Flow: jump})
	}
	condJump("b.jz", true)
	condJump("b.jnz", false)

	// CALL w: w is the function header slot (entry PC, ignored-arg-count).
	// The single argument stays in the accumulator; the callee's frame gets
	// the caller's L and return PC.
	b.EmitAt("b.call", masm.I{A: microcode.ASelIFUData, ALU: microcode.ALUA,
		LC: microcode.LCLoadRM, R: rHdr})
	b.Emit(masm.I{A: microcode.ASelFetch, R: rHdr, FF: microcode.FFMemBaseBase + MBGlobal})
	b.Emit(masm.I{ALU: microcode.ALUB, B: microcode.BSelMD, LC: microcode.LCLoadRM, R: rPC})
	// Allocate a frame from the free list (zero head = exhausted: trap).
	b.Emit(masm.I{A: microcode.ASelFetch, R: rAV, FF: microcode.FFMemBaseBase + MBSys})
	b.Emit(masm.I{ALU: microcode.ALUB, B: microcode.BSelMD, LC: microcode.LCLoadRM, R: rFB,
		Flow: masm.Branch(microcode.CondALUZero, "b.call.ok", "b.call.exh")})
	b.EmitAt("b.call.exh", masm.I{Flow: masm.Goto("illegal")})
	b.EmitAt("b.call.ok", masm.I{ALU: microcode.ALUB, B: microcode.BSelMD, LC: microcode.LCLoadRM, R: rNew})
	b.Emit(masm.I{A: microcode.ASelFetch, R: rFB})
	b.Emit(masm.I{A: microcode.ASelStore, R: rAV, B: microcode.BSelMD})
	// Save the caller's L and return PC through Q (T carries the argument).
	b.Emit(masm.I{B: microcode.BSelRM, R: rL, FF: microcode.FFPutQ})
	b.Emit(masm.I{A: microcode.ASelStore, R: rNew, B: microcode.BSelQ,
		ALU: microcode.ALUAplus1, LC: microcode.LCLoadRM})
	b.Emit(masm.I{FF: microcode.FFGetMacroPC, LC: microcode.LCLoadRM, R: rTmp})
	b.Emit(masm.I{B: microcode.BSelRM, R: rTmp, FF: microcode.FFPutQ})
	b.Emit(masm.I{A: microcode.ASelStore, R: rNew, B: microcode.BSelQ})
	// Rebase and go.
	b.Emit(masm.I{A: microcode.ASelRM, R: rFB, ALU: microcode.ALUA,
		LC: microcode.LCLoadRM, FF: microcode.FFRMDestBase + rL})
	b.Emit(masm.I{FF: microcode.FFMemBaseBase + MBLocal})
	b.Emit(masm.I{B: microcode.BSelRM, R: rL, FF: microcode.FFPutBaseLo})
	b.Emit(masm.I{B: microcode.BSelRM, R: rPC, FF: microcode.FFIFUReset})
	b.Emit(masm.I{Flow: jump})

	// RET: result stays in the accumulator.
	b.EmitAt("b.ret", masm.I{A: microcode.ASelFetch, R: rZero})
	b.Emit(masm.I{ALU: microcode.ALUB, B: microcode.BSelMD, LC: microcode.LCLoadRM, R: rTmp})
	b.Emit(masm.I{A: microcode.ASelFetch, R: rOne})
	b.Emit(masm.I{ALU: microcode.ALUB, B: microcode.BSelMD, LC: microcode.LCLoadRM, R: rTmp2})
	b.Emit(masm.I{B: microcode.BSelRM, R: rL, FF: microcode.FFPutQ})
	b.Emit(masm.I{A: microcode.ASelFetch, R: rAV, FF: microcode.FFMemBaseBase + MBSys})
	b.Emit(masm.I{A: microcode.ASelStore, R: rL, B: microcode.BSelMD})
	b.Emit(masm.I{A: microcode.ASelStore, R: rAV, B: microcode.BSelQ})
	b.Emit(masm.I{A: microcode.ASelRM, R: rTmp, ALU: microcode.ALUA,
		LC: microcode.LCLoadRM, FF: microcode.FFRMDestBase + rL})
	b.Emit(masm.I{FF: microcode.FFMemBaseBase + MBLocal})
	b.Emit(masm.I{B: microcode.BSelRM, R: rL, FF: microcode.FFPutBaseLo})
	b.Emit(masm.I{B: microcode.BSelRM, R: rTmp2, FF: microcode.FFIFUReset})
	b.Emit(masm.I{Flow: jump})

	// Globals.
	b.EmitAt("b.ldg", masm.I{A: microcode.ASelFetchIFU, FF: microcode.FFMemBaseBase + MBGlobal})
	b.Emit(masm.I{ALU: microcode.ALUB, B: microcode.BSelMD, LC: microcode.LCLoadT,
		FF: microcode.FFMemBaseBase + MBLocal, Flow: jump})
	b.EmitAt("b.stg", masm.I{A: microcode.ASelStoreIFU, B: microcode.BSelT,
		FF: microcode.FFMemBaseBase + MBGlobal})
	b.Emit(masm.I{FF: microcode.FFMemBaseBase + MBLocal, Flow: jump})

	// LDIX a: ACC ← mem[local a + ACC] (vector indexing; the address is
	// absolute, BCPL-style).
	b.EmitAt("b.ldix", masm.I{A: microcode.ASelFetchIFU})
	b.Emit(masm.I{A: microcode.ASelMD, B: microcode.BSelT, ALU: microcode.ALUAplusB,
		LC: microcode.LCLoadRM, R: rTmp})
	b.Emit(masm.I{A: microcode.ASelFetch, R: rTmp, FF: microcode.FFMemBaseBase + MBSys})
	b.Emit(masm.I{ALU: microcode.ALUB, B: microcode.BSelMD, LC: microcode.LCLoadT})
	b.Emit(masm.I{FF: microcode.FFMemBaseBase + MBLocal, Flow: jump})
}
