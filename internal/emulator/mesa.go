package emulator

import (
	"dorado/internal/masm"
	"dorado/internal/microcode"
)

// Mesa opcode bytes. The set is a reconstruction of the Mesa PrincOps
// flavor the paper's emulator interpreted: a compact stack machine whose
// simple operations map onto one or two microinstructions because the
// hardware evaluation stack, the IFU operand path, and the one-instruction
// memory reference do all the work (§7).
const (
	MesaLL   = 0x01 // LL a:   push local a             (2 µinst)
	MesaSL   = 0x02 // SL a:   pop into local a         (1 µinst)
	MesaLIB  = 0x03 // LIB a:  push literal byte        (1 µinst)
	MesaLIW  = 0x04 // LIW w:  push literal word        (1 µinst)
	MesaADD  = 0x05 // ADD:    s[p-1] += s[p]; pop      (2 µinst)
	MesaSUB  = 0x06 // SUB                              (2 µinst)
	MesaAND  = 0x07 // AND                              (2 µinst)
	MesaOR   = 0x08 // OR                               (2 µinst)
	MesaXOR  = 0x09 // XOR                              (2 µinst)
	MesaINC  = 0x0A // INC:    top++                    (1 µinst)
	MesaNEG  = 0x0B // NEG:    top = -top               (1 µinst)
	MesaDUP  = 0x0C // DUP                              (1 µinst)
	MesaDROP = 0x0D // DROP                             (1 µinst)
	MesaJMP  = 0x0E // JMP w:  jump to byte PC w        (2 µinst + IFU restart)
	MesaJZ   = 0x0F // JZ w:   pop; jump if zero        (2 or 3 µinst)
	MesaJNZ  = 0x10 // JNZ w                            (2 or 3 µinst)
	MesaCALL = 0x11 // CALL w: call function header w   (≈22 + 3/arg µinst)
	MesaRET  = 0x12 // RET                              (12 µinst)
	MesaLG   = 0x13 // LG a:   push global a            (2 µinst)
	MesaSG   = 0x14 // SG a:   pop into global a        (2 µinst)
	MesaRF   = 0x15 // RF d:   pop addr; push field     (6 µinst)
	MesaWF   = 0x16 // WF d:   pop data, addr; merge    (8 µinst)
	MesaMUL  = 0x17 // MUL:    pop two, push product    (21 µinst)
	MesaLSH  = 0x18 // LSH a:  top <<= a                (4 µinst)
	MesaJN   = 0x19 // JN w:   pop; jump if negative    (2 or 3 µinst)
	MesaHALT = 0x1F // HALT:   stop the machine
)

// Stack-mode RAddress nibbles: +1 push, 0 replace-top, −1 pop.
const (
	push = 1
	top  = 0
	pop  = 15 // two's-complement −1
)

// Mesa returns the Mesa emulator, assembled on first use. Every
// caller shares the one Program and only reads it.
func Mesa() *Program { return mesa() }

var mesa = bundled(emitMesaHandlers, finishMesa)

// BuildMesaPadded assembles the Mesa emulator scheduled for a machine
// without bypassing (§5.6's Model 0): a no-op is inserted at every
// read-after-write hazard. It returns the padded emulator and the number
// of no-ops inserted — the "significant loss of performance" of experiment
// E10 is their cost.
func BuildMesaPadded() (*Program, int, error) {
	b := masm.NewBuilder()
	emitBoot(b)
	emitMesaHandlers(b)
	pads := b.PadCount()
	p, err := b.PaddedForNoBypass().Assemble()
	if err != nil {
		return nil, 0, err
	}
	prog, err := finishMesa(p, "")
	if err != nil {
		return nil, 0, err
	}
	prog.Name = "mesa-padded"
	return prog, pads, nil
}

// finishMesa builds the decode table from the placed program; prefix
// selects relocated symbols in a composed SystemImage.
func finishMesa(p *masm.Program, prefix string) (*Program, error) {
	table, ops, err := buildTable(p, prefix, []opdef{
		{MesaLL, "LL", "m.ll", 1, false},
		{MesaSL, "SL", "m.sl", 1, false},
		{MesaLIB, "LIB", "m.lib", 1, false},
		{MesaLIW, "LIW", "m.liw", 2, true},
		{MesaADD, "ADD", "m.add", 0, false},
		{MesaSUB, "SUB", "m.sub", 0, false},
		{MesaAND, "AND", "m.and", 0, false},
		{MesaOR, "OR", "m.or", 0, false},
		{MesaXOR, "XOR", "m.xor", 0, false},
		{MesaINC, "INC", "m.inc", 0, false},
		{MesaNEG, "NEG", "m.neg", 0, false},
		{MesaDUP, "DUP", "m.dup", 0, false},
		{MesaDROP, "DROP", "m.drop", 0, false},
		{MesaJMP, "JMP", "m.jmp", 2, true},
		{MesaJZ, "JZ", "m.jz", 2, true},
		{MesaJNZ, "JNZ", "m.jnz", 2, true},
		{MesaCALL, "CALL", "m.call", 2, true},
		{MesaRET, "RET", "m.ret", 0, false},
		{MesaLG, "LG", "m.lg", 1, false},
		{MesaSG, "SG", "m.sg", 1, false},
		{MesaRF, "RF", "m.rf", 2, true},
		{MesaWF, "WF", "m.wf", 2, true},
		{MesaMUL, "MUL", "m.mul", 0, false},
		{MesaLSH, "LSH", "m.lsh", 1, false},
		{MesaJN, "JN", "m.jn", 2, true},
		{MesaHALT, "HALT", "op.halt", 0, false},
	})
	if err != nil {
		return nil, err
	}
	return newProgram(&Program{
		Name:    "mesa",
		Micro:   p,
		Table:   table,
		Boot:    p.MustEntry(prefix + "boot"),
		Opcodes: ops,
		RestMB:  MBLocal,
	})
}

// emitMesaHandlers writes the handler microcode. Conventions: the hardware
// stack is the evaluation stack (STACKPTR at the top element); T is free
// scratch within a handler; MEMBASE rests at MBLocal between opcodes.
func emitMesaHandlers(b *masm.Builder) {
	jump := masm.IFUJump()

	// LL a: fetch local a, push it.
	b.EmitAt("m.ll", masm.I{A: microcode.ASelFetchIFU})
	b.Emit(masm.I{ALU: microcode.ALUB, B: microcode.BSelMD, LC: microcode.LCLoadRM,
		Block: true, R: push, Flow: jump})

	// SL a: store the popped top at local a — one microinstruction: the
	// operand is the address, the stack top is the data (§7: "moves a
	// 16 bit word to or from memory in one microinstruction").
	b.EmitAt("m.sl", masm.I{A: microcode.ASelStoreIFU, B: microcode.BSelRM,
		Block: true, R: pop, Flow: jump})

	// LIB/LIW: push the operand.
	b.EmitAt("m.lib", masm.I{A: microcode.ASelIFUData, ALU: microcode.ALUA,
		LC: microcode.LCLoadRM, Block: true, R: push, Flow: jump})
	b.EmitAt("m.liw", masm.I{A: microcode.ASelIFUData, ALU: microcode.ALUA,
		LC: microcode.LCLoadRM, Block: true, R: push, Flow: jump})

	// Binary operators: T ← pop, then top ← top ⊕ T.
	binop := func(label string, fn microcode.ALUFn) {
		b.EmitAt(label, masm.I{ALU: microcode.ALUA, LC: microcode.LCLoadT, Block: true, R: pop})
		b.Emit(masm.I{ALU: fn, B: microcode.BSelT, LC: microcode.LCLoadRM,
			Block: true, R: top, Flow: jump})
	}
	binop("m.add", microcode.ALUAplusB)
	binop("m.sub", microcode.ALUAminusB)
	binop("m.and", microcode.ALUAandB)
	binop("m.or", microcode.ALUAorB)
	binop("m.xor", microcode.ALUAxorB)

	// Unary operators on the top element.
	b.EmitAt("m.inc", masm.I{ALU: microcode.ALUAplus1, LC: microcode.LCLoadRM,
		Block: true, R: top, Flow: jump})
	b.EmitAt("m.neg", masm.I{ALU: microcode.ALUBminusA, Const: 0, HasConst: true,
		LC: microcode.LCLoadRM, Block: true, R: top, Flow: jump})
	b.EmitAt("m.dup", masm.I{ALU: microcode.ALUA, LC: microcode.LCLoadRM,
		Block: true, R: push, Flow: jump})
	b.EmitAt("m.drop", masm.I{Block: true, R: pop, Flow: jump})

	// JMP w: reset the IFU at the target byte PC.
	b.EmitAt("m.jmp", masm.I{A: microcode.ASelIFUData, ALU: microcode.ALUA, LC: microcode.LCLoadT})
	b.Emit(masm.I{B: microcode.BSelT, FF: microcode.FFIFUReset})
	b.Emit(masm.I{Flow: jump})

	// JZ w / JNZ w: pop, test, maybe jump. The untaken path leaves the
	// operand to be discarded by the next dispatch.
	condJump := func(label string, takenOnZero bool) {
		no, yes := label+".no", label+".yes"
		elseL, thenL := no, yes
		if !takenOnZero {
			elseL, thenL = yes, no // ALU≠0 falls to .yes
		}
		b.EmitAt(label, masm.I{ALU: microcode.ALUA, Block: true, R: pop,
			Flow: masm.Branch(microcode.CondALUZero, elseL, thenL)})
		b.EmitAt(no, masm.I{Flow: jump})
		b.EmitAt(yes, masm.I{A: microcode.ASelIFUData, ALU: microcode.ALUA, LC: microcode.LCLoadT})
		b.Emit(masm.I{B: microcode.BSelT, FF: microcode.FFIFUReset})
		b.Emit(masm.I{Flow: jump})
	}
	condJump("m.jz", true)
	condJump("m.jnz", false)

	// JN w: pop; jump if the value is negative (bit 15), the compare-jump
	// the compiler builds < and > from.
	b.EmitAt("m.jn", masm.I{ALU: microcode.ALUA, Block: true, R: pop,
		Flow: masm.Branch(microcode.CondALUNeg, "m.jn.no", "m.jn.yes")})
	b.EmitAt("m.jn.no", masm.I{Flow: jump})
	b.EmitAt("m.jn.yes", masm.I{A: microcode.ASelIFUData, ALU: microcode.ALUA, LC: microcode.LCLoadT})
	b.Emit(masm.I{B: microcode.BSelT, FF: microcode.FFIFUReset})
	b.Emit(masm.I{Flow: jump})

	// CALL w: w is the word address (in MBGlobal) of a two-word function
	// header {entry byte PC, nargs}. Allocates a frame from the free list,
	// saves the caller's L and return PC, moves the arguments from the
	// evaluation stack into the frame, rebases MBLocal, and restarts the
	// IFU at the entry PC. Frame layout: [0]=saved L, [1]=saved PC,
	// [2..]=args (in pop order: local 0 is the LAST argument), then locals.
	b.EmitAt("m.call", masm.I{A: microcode.ASelIFUData, ALU: microcode.ALUA,
		LC: microcode.LCLoadRM, R: rHdr})
	b.Emit(masm.I{A: microcode.ASelFetch, R: rHdr, ALU: microcode.ALUAplus1,
		LC: microcode.LCLoadRM, FF: microcode.FFMemBaseBase + MBGlobal})
	b.Emit(masm.I{ALU: microcode.ALUB, B: microcode.BSelMD, LC: microcode.LCLoadRM, R: rPC})
	b.Emit(masm.I{A: microcode.ASelFetch, R: rHdr})
	b.Emit(masm.I{B: microcode.BSelMD, FF: microcode.FFPutCount})
	b.Emit(masm.I{A: microcode.ASelFetch, R: rAV, FF: microcode.FFMemBaseBase + MBSys})
	// A zero free-list head means the frame pool is exhausted: trap (the
	// real Mesa XFER checked frame availability the same way).
	b.Emit(masm.I{ALU: microcode.ALUB, B: microcode.BSelMD, LC: microcode.LCLoadRM, R: rFB,
		Flow: masm.Branch(microcode.CondALUZero, "m.call.ok", "m.call.exh")})
	b.EmitAt("m.call.exh", masm.I{Flow: masm.Goto("illegal")})
	b.EmitAt("m.call.ok", masm.I{ALU: microcode.ALUB, B: microcode.BSelMD, LC: microcode.LCLoadRM, R: rNew})
	b.Emit(masm.I{A: microcode.ASelFetch, R: rFB})
	b.Emit(masm.I{A: microcode.ASelStore, R: rAV, B: microcode.BSelMD})
	b.Emit(masm.I{A: microcode.ASelRM, R: rL, ALU: microcode.ALUA, LC: microcode.LCLoadT})
	b.Emit(masm.I{A: microcode.ASelStore, R: rNew, B: microcode.BSelT,
		ALU: microcode.ALUAplus1, LC: microcode.LCLoadRM})
	b.Emit(masm.I{FF: microcode.FFGetMacroPC, LC: microcode.LCLoadT})
	b.Emit(masm.I{A: microcode.ASelStore, R: rNew, B: microcode.BSelT,
		ALU: microcode.ALUAplus1, LC: microcode.LCLoadRM})
	// Argument loop: while COUNT≠0, pop an argument into the frame.
	b.EmitAt("m.call.head", masm.I{Flow: masm.Branch(microcode.CondCountNZ, "m.call.fin", "m.call.arg")})
	b.EmitAt("m.call.arg", masm.I{ALU: microcode.ALUA, LC: microcode.LCLoadT, Block: true, R: pop})
	b.Emit(masm.I{A: microcode.ASelStore, R: rNew, B: microcode.BSelT,
		ALU: microcode.ALUAplus1, LC: microcode.LCLoadRM, Flow: masm.Goto("m.call.head")})
	b.EmitAt("m.call.fin", masm.I{A: microcode.ASelRM, R: rFB, ALU: microcode.ALUA,
		LC: microcode.LCLoadRM, FF: microcode.FFRMDestBase + rL})
	b.Emit(masm.I{FF: microcode.FFMemBaseBase + MBLocal})
	b.Emit(masm.I{B: microcode.BSelRM, R: rL, FF: microcode.FFPutBaseLo})
	b.Emit(masm.I{A: microcode.ASelRM, R: rPC, ALU: microcode.ALUA, LC: microcode.LCLoadT})
	b.Emit(masm.I{B: microcode.BSelT, FF: microcode.FFIFUReset})
	b.Emit(masm.I{Flow: jump})

	// RET: restore the caller's frame and PC, free this frame.
	b.EmitAt("m.ret", masm.I{A: microcode.ASelFetch, R: rZero})
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

	// LG/SG: globals, switching MEMBASE there and back.
	b.EmitAt("m.lg", masm.I{A: microcode.ASelFetchIFU, FF: microcode.FFMemBaseBase + MBGlobal})
	b.Emit(masm.I{ALU: microcode.ALUB, B: microcode.BSelMD, LC: microcode.LCLoadRM,
		Block: true, R: push, FF: microcode.FFMemBaseBase + MBLocal, Flow: jump})
	b.EmitAt("m.sg", masm.I{A: microcode.ASelStoreIFU, B: microcode.BSelRM,
		Block: true, R: pop, FF: microcode.FFMemBaseBase + MBGlobal})
	b.Emit(masm.I{FF: microcode.FFMemBaseBase + MBLocal, Flow: jump})

	// RF d: pop an absolute address, fetch the word, extract the field
	// described by the wide operand (a pre-encoded SHIFTCTL value), push it.
	b.EmitAt("m.rf", masm.I{A: microcode.ASelFetch, Block: true, R: pop,
		FF: microcode.FFMemBaseBase + MBSys})
	b.Emit(masm.I{A: microcode.ASelIFUData, ALU: microcode.ALUA, LC: microcode.LCLoadT})
	b.Emit(masm.I{B: microcode.BSelT, FF: microcode.FFPutShiftCtl})
	b.Emit(masm.I{ALU: microcode.ALUB, B: microcode.BSelMD, LC: microcode.LCLoadT})
	b.Emit(masm.I{FF: microcode.FFShiftMaskZ, LC: microcode.LCLoadRM,
		Block: true, R: push})
	b.Emit(masm.I{FF: microcode.FFMemBaseBase + MBLocal, Flow: jump})

	// WF d: pop data then an absolute address; read-modify-write the field.
	b.EmitAt("m.wf", masm.I{A: microcode.ASelIFUData, ALU: microcode.ALUA, LC: microcode.LCLoadT})
	b.Emit(masm.I{B: microcode.BSelT, FF: microcode.FFPutShiftCtl})
	b.Emit(masm.I{ALU: microcode.ALUA, LC: microcode.LCLoadT, Block: true, R: pop})
	b.Emit(masm.I{A: microcode.ASelT, ALU: microcode.ALUA, LC: microcode.LCLoadRM, R: rTmp})
	b.Emit(masm.I{A: microcode.ASelFetch, Block: true, R: top,
		FF: microcode.FFMemBaseBase + MBSys})
	b.Emit(masm.I{FF: microcode.FFShiftMaskMD, R: rTmp, LC: microcode.LCLoadT})
	b.Emit(masm.I{A: microcode.ASelStore, B: microcode.BSelT, Block: true, R: pop})
	b.Emit(masm.I{FF: microcode.FFMemBaseBase + MBLocal, Flow: jump})

	// MUL: pop the multiplier into Q, 16 multiply steps against the top,
	// replace the top with the low half of the product.
	b.EmitAt("m.mul", masm.I{ALU: microcode.ALUA, LC: microcode.LCLoadT, Block: true, R: pop})
	b.Emit(masm.I{B: microcode.BSelT, FF: microcode.FFPutQ})
	b.Emit(masm.I{Const: 0, HasConst: true, ALU: microcode.ALUB, LC: microcode.LCLoadT})
	b.Emit(masm.I{FF: microcode.FFCountBase + 15})
	b.EmitAt("m.mul.loop", masm.I{FF: microcode.FFMulStep, A: microcode.ASelT,
		B: microcode.BSelRM, LC: microcode.LCLoadT, Block: true, R: top,
		Flow: masm.Branch(microcode.CondCountNZ, "m.mul.done", "m.mul.loop")})
	b.EmitAt("m.mul.done", masm.I{FF: microcode.FFGetQ, LC: microcode.LCLoadRM,
		Block: true, R: top, Flow: jump})

	// LSH a: shift the top left by the operand.
	b.EmitAt("m.lsh", masm.I{Const: 0, HasConst: true, ALU: microcode.ALUB, LC: microcode.LCLoadT})
	b.Emit(masm.I{A: microcode.ASelIFUData, ALU: microcode.ALUA, LC: microcode.LCLoadRM, R: rTmp})
	b.Emit(masm.I{B: microcode.BSelRM, R: rTmp, FF: microcode.FFPutShiftCtl})
	b.Emit(masm.I{FF: microcode.FFShiftNoMask, LC: microcode.LCLoadRM,
		Block: true, R: top, Flow: jump})
}
