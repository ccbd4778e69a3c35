package microcode

import "fmt"

// FF is the eight-bit "catchall" function field (§5.5): it invokes all the
// less frequently used operations of the processor — control of the I/O
// busses, reading and setting state in the memory and IFU, shifter control,
// reading and loading most registers, multiply/divide steps, and loading
// small constants into small registers.
//
// FF is *contextual*: when BSelect chooses one of the four constant sources,
// or when NextControl is a long transfer or dispatch, the FF byte is data
// (a constant byte or address bits) and no FF function executes. This is
// the paper's "only one FF-specified operation ... in each cycle" tradeoff;
// the assembler rejects instructions that need FF for two purposes.
//
// FF operation map (reconstruction; see package doc):
//
//	0x00        Nop
//	0x01        ReadyB       make task B&0xF ready (explicit wakeup, §6.2.1)
//	0x02        ReadTPC      RESULT ← TPC[B&0xF]           (§6.2.3, via TPIMOUT)
//	0x03        WriteTPC     TPC[COUNT&0xF] ← B
//	0x04        CPRegGet     RESULT ← CPREG (console processor, §6.2.3)
//	0x05        CPRegPut     CPREG ← B
//	0x06        FlushCache   flush/invalidate the cache line covering VA(A)
//	0x07        MapSet       map[vpage(A)] ← B
//	0x08        MapGet       RESULT ← map[vpage(A)]
//	0x09        IFUReset     reset the IFU at a new macro-PC taken from B
//	0x0B        SetMB        set the MB branch-condition flag
//	0x0C        ClearMB      clear the MB flag
//	0x0D        StackReset   STACKPTR ← B, clear stack error
//	0x0E        ProbeMD      MB ← "MD ready" (the §5.7 polling ablation)
//	0x0F        Halt         stop the simulation (console breakpoint)
//	0x10–0x1A   put-from-B:  RBASE STKP MEMBASE SHIFTCTL IOADDRESS COUNT Q
//	            ALUFM[ALUOp] LINK BASELO BASEHI (0x1B–0x1F reserved)
//	0x20–0x2C   read-to-RESULT: RBASE STKP MEMBASE SHIFTCTL IOADDRESS COUNT
//	            Q ALUFM[ALUOp] LINK MACROPC BASELO FAULTHI FAULTLO (RESULT
//	            is sourced from the register instead of the ALU; the ALU
//	            still runs for branch conditions; 0x2D–0x2F reserved)
//	0x30–0x3F   COUNT ← n (small constants, §6.3.3)
//	0x40–0x5F   MEMBASE ← n (n = 0..31, §6.3.3)
//	0x60        ShiftNoMask  RESULT ← shifter(RM‖T) per SHIFTCTL
//	0x61        ShiftMaskZ   ditto, masked with zeros
//	0x62        ShiftMaskMD  ditto, masked with memory data
//	0x63        ALULsh       RESULT ← ALU<<1 (one-bit left shift of ALU output)
//	0x64        ALURsh       RESULT ← ALU>>1
//	0x65        MulStep      multiply step using Q (§6.3.3)
//	0x66        DivStep      divide step using Q
//	0x70        Input        B bus ← device[IOADDRESS].Input() (IODATA sources B)
//	0x71        Output       device[IOADDRESS].Output(B)
//	0x72        IOAttenAck   acknowledge the addressed device's attention
//	0x73        DevCtl       device[IOADDRESS].Control(B)
//	0x80–0x9F   SHIFTCTL ← rotate(k), k = 0..31, no masks (quick shifter setup)
//	0xA0–0xAF   RM[n]← : redirect this instruction's RM write to register
//	            rbase·16+n ("loading a different register ... by FF", §6.3.3)
//	0xB0–0xFF   reserved
type FF = uint8

// Named FF operation codes.
const (
	FFNop        FF = 0x00
	FFReadyB     FF = 0x01
	FFReadTPC    FF = 0x02
	FFWriteTPC   FF = 0x03
	FFCPRegGet   FF = 0x04
	FFCPRegPut   FF = 0x05
	FFFlushCache FF = 0x06
	FFMapSet     FF = 0x07
	FFMapGet     FF = 0x08
	FFIFUReset   FF = 0x09
	FFSetMB      FF = 0x0B
	FFClearMB    FF = 0x0C
	FFStackReset FF = 0x0D
	// FFProbeMD loads the MB flag with "this task's memory data is ready".
	// It exists for the §5.7 ablation: a machine *without* Hold would make
	// microcode poll the memory this way. Production Dorado microcode never
	// needs it.
	FFProbeMD FF = 0x0E
	// FFHalt stops the simulated machine (stands in for the console
	// processor's breakpoint/stop facility, §6.2.3). Production microcode
	// never executes it; tests and examples use it to end runs.
	FFHalt FF = 0x0F

	FFPutRBase     FF = 0x10
	FFPutStackPtr  FF = 0x11
	FFPutMemBase   FF = 0x12
	FFPutShiftCtl  FF = 0x13
	FFPutIOAddress FF = 0x14
	FFPutCount     FF = 0x15
	FFPutQ         FF = 0x16
	FFPutALUFM     FF = 0x17
	FFPutLink      FF = 0x18
	// FFPutBaseLo loads the low 16 bits of the memory base register
	// selected by MEMBASE from B (how emulator calls rebase the LOCAL
	// frame; base registers live in the memory system, loaded over
	// EXTERNALB, §5.8/§6.3.2).
	FFPutBaseLo FF = 0x19
	// FFPutBaseHi loads the high 12 bits of the selected base register.
	FFPutBaseHi FF = 0x1A

	FFGetRBase     FF = 0x20
	FFGetStackPtr  FF = 0x21
	FFGetMemBase   FF = 0x22
	FFGetShiftCtl  FF = 0x23
	FFGetIOAddress FF = 0x24
	FFGetCount     FF = 0x25
	FFGetQ         FF = 0x26
	FFGetALUFM     FF = 0x27
	FFGetLink      FF = 0x28
	// FFGetMacroPC reads the IFU's current macroinstruction byte PC — the
	// return address an emulator's call opcode must save (the IFU paper's
	// "reading state in the ... IFU", §5.5).
	FFGetMacroPC FF = 0x29
	// FFGetBaseLo reads the low 16 bits of the selected base register.
	FFGetBaseLo FF = 0x2A
	// FFGetFaultHi reads the pending map fault's high word:
	// kind(2 bits)<<12 | VA bits 27..16 (the memory system's fault
	// machinery; see internal/memory/map.go).
	FFGetFaultHi FF = 0x2B
	// FFGetFaultLo reads the fault VA's low 16 bits and *clears* the fault
	// (the fault task reads Hi first, then Lo).
	FFGetFaultLo FF = 0x2C

	FFCountBase   FF = 0x30 // FFCountBase+n : COUNT ← n (n in 0..15)
	FFMemBaseBase FF = 0x40 // FFMemBaseBase+n : MEMBASE ← n (n in 0..31)

	FFShiftNoMask FF = 0x60
	FFShiftMaskZ  FF = 0x61
	FFShiftMaskMD FF = 0x62
	FFALULsh      FF = 0x63
	FFALURsh      FF = 0x64
	FFMulStep     FF = 0x65
	FFDivStep     FF = 0x66

	FFInput      FF = 0x70
	FFOutput     FF = 0x71
	FFIOAttenAck FF = 0x72
	FFDevCtl     FF = 0x73

	FFRotBase FF = 0x80 // FFRotBase+k : SHIFTCTL ← rotate k, no masks (k in 0..31)

	// FFRMDestBase+n redirects this instruction's RM write to register
	// rbase·16+n instead of the RAddress register (§6.3.3: "Normally, the
	// same register is both read and loaded in a given microinstruction,
	// but loading a different register can be specified by FF").
	FFRMDestBase FF = 0xA0 // +n, n in 0..15
)

// FFClass groups FF operations for decode dispatch and conflict analysis.
type FFClass uint8

const (
	// FFClassNone is a no-op (or FF-as-data).
	FFClassNone FFClass = iota
	// FFClassMisc covers the 0x01–0x0D singletons.
	FFClassMisc
	// FFClassPut loads a small register from B.
	FFClassPut
	// FFClassGet routes a small register to RESULT.
	FFClassGet
	// FFClassCountConst loads COUNT with a small constant.
	FFClassCountConst
	// FFClassMemBaseConst loads MEMBASE with a constant.
	FFClassMemBaseConst
	// FFClassShifter is a shifter/ALU-shift/mul-div operation.
	FFClassShifter
	// FFClassIO is an I/O bus operation.
	FFClassIO
	// FFClassRot is a quick SHIFTCTL rotate setup.
	FFClassRot
	// FFClassRMDest redirects the RM write destination.
	FFClassRMDest
	// FFClassReserved marks unassigned codes.
	FFClassReserved
)

// ClassifyFF returns the class of an FF operation byte (assuming FF is being
// interpreted as an operation, i.e. not consumed as a constant or address).
func ClassifyFF(ff FF) FFClass {
	switch {
	case ff == FFNop || ff == 0x0A:
		if ff == FFNop {
			return FFClassNone
		}
		return FFClassReserved
	case ff < 0x10:
		return FFClassMisc
	case ff < 0x1B:
		return FFClassPut
	case ff < 0x20:
		return FFClassReserved
	case ff < 0x2D:
		return FFClassGet
	case ff < 0x30:
		return FFClassReserved
	case ff < 0x40:
		return FFClassCountConst
	case ff < 0x60:
		return FFClassMemBaseConst
	case ff <= FFDivStep:
		return FFClassShifter
	case ff < 0x70:
		return FFClassReserved
	case ff <= FFDevCtl:
		return FFClassIO
	case ff < 0x80:
		return FFClassReserved
	case ff < 0xA0:
		return FFClassRot
	case ff < 0xB0:
		return FFClassRMDest
	}
	return FFClassReserved
}

var ffNames = map[FF]string{
	FFNop: "Nop", FFReadyB: "ReadyB", FFReadTPC: "ReadTPC", FFWriteTPC: "WriteTPC",
	FFCPRegGet: "CPRegGet", FFCPRegPut: "CPRegPut", FFFlushCache: "FlushCache",
	FFMapSet: "MapSet", FFMapGet: "MapGet", FFIFUReset: "IFUReset",
	FFSetMB: "SetMB", FFClearMB: "ClearMB", FFStackReset: "StackReset",
	FFHalt:     "Halt",
	FFProbeMD:  "ProbeMD",
	FFPutRBase: "RBase←B", FFPutStackPtr: "StkP←B", FFPutMemBase: "MemBase←B",
	FFPutShiftCtl: "ShiftCtl←B", FFPutIOAddress: "IOAddr←B", FFPutCount: "Count←B",
	FFPutQ: "Q←B", FFPutALUFM: "ALUFM←B", FFPutLink: "Link←B",
	FFGetRBase: "←RBase", FFGetStackPtr: "←StkP", FFGetMemBase: "←MemBase",
	FFGetShiftCtl: "←ShiftCtl", FFGetIOAddress: "←IOAddr", FFGetCount: "←Count",
	FFGetQ: "←Q", FFGetALUFM: "←ALUFM", FFGetLink: "←Link", FFGetMacroPC: "←MacroPC",
	FFPutBaseLo: "BaseLo←B", FFPutBaseHi: "BaseHi←B", FFGetBaseLo: "←BaseLo",
	FFGetFaultHi: "←FaultHi", FFGetFaultLo: "←FaultLo",
	FFShiftNoMask: "Shift", FFShiftMaskZ: "ShiftMaskZ", FFShiftMaskMD: "ShiftMaskMD",
	FFALULsh: "ALU<<1", FFALURsh: "ALU>>1", FFMulStep: "MulStep", FFDivStep: "DivStep",
	FFInput: "Input", FFOutput: "Output", FFIOAttenAck: "IOAttenAck", FFDevCtl: "DevCtl",
}

// FFName renders an FF operation byte for disassembly.
func FFName(ff FF) string {
	if s, ok := ffNames[ff]; ok {
		return s
	}
	switch ClassifyFF(ff) {
	case FFClassCountConst:
		return fmt.Sprintf("Count←%d", ff-FFCountBase)
	case FFClassRMDest:
		return fmt.Sprintf("RM[%d]←", ff-FFRMDestBase)
	case FFClassMemBaseConst:
		return fmt.Sprintf("MemBase←%d", ff-FFMemBaseBase)
	case FFClassRot:
		return fmt.Sprintf("ShiftCtl←Rot%d", ff-FFRotBase)
	}
	return fmt.Sprintf("FF(%#02x)", ff)
}
