package emulator

import (
	"fmt"
	"sync"

	"dorado/internal/core"
	"dorado/internal/ifu"
	"dorado/internal/masm"
	"dorado/internal/microcode"
)

// Memory base register assignments (MEMBASE values). Base 0 stays zero so
// plain RM-displacement references address low memory.
const (
	MBSys    = 0 // system page, frame heap (base 0)
	MBCode   = 1 // macroinstruction code
	MBLocal  = 2 // current frame (rebased by call/return microcode)
	MBGlobal = 3 // globals and function headers
	MBStack  = 4 // memory evaluation stack (Lisp)
	MBHeap   = 5 // cons cells / objects
)

// Word-VA layout. Everything lives in the low 64 K words so 16-bit base
// reloads (FF PutBaseLo) suffice.
const (
	VASys    = 0x0000
	VAFrames = 0x0800 // frame heap: 64 frames × 32 words
	VACode   = 0x2000
	VAGlobal = 0x3000
	VAStack  = 0x4000
	VAHeap   = 0x5000
	VABind   = 0x7000 // Lisp shallow-binding stack

	// AVHead is the sys-page word holding the frame free-list head.
	AVHead = 0x0010
	// HPHead is the sys-page word holding the heap allocation pointer.
	HPHead = 0x0014

	frameWords = 32
	frameCount = 96 // 0x0800..0x13FF; code starts at 0x2000
)

// Emulator RM register conventions (bank 0). Registers 8–15 are the
// emulator's dedicated pointers; 0–7 are scratch.
const (
	rScratch  = 0
	rScratch2 = 1
	rTmp      = 2
	rTmp2     = 3
	rVal      = 4
	rVal2     = 5
	rHdr      = 6
	rPC       = 7
	rZero     = 8  // always 0
	rOne      = 9  // always 1
	rAV       = 10 // address of the frame free-list head (AVHead)
	rL        = 11 // current frame address (mirrors base[MBLocal])
	rSP       = 12 // memory stack pointer (Lisp: displacement from MBStack)
	rNew      = 13 // frame allocation cursor
	rFB       = 14 // frame base during call
	rGP       = 15 // Lisp: binding-stack pointer; Smalltalk: send-chain class cursor
)

// Program is an assembled emulator: microcode image plus the IFU decode
// table and boot entry. The bundled emulators (Mesa, BCPL, Lisp,
// Smalltalk) are each one Program per process, shared by every machine
// that installs it, so a Program is read-only once assembled.
type Program struct {
	Name    string
	Micro   *masm.Program
	Table   [256]ifu.Entry
	Boot    microcode.Addr
	Opcodes map[string]uint8 // mnemonic → opcode byte
	// RestMB is the MEMBASE value handlers leave selected between opcodes
	// (MBLocal for the frame-relative machines, MBSys for Lisp, which
	// addresses its memory stack and heap absolutely).
	RestMB uint8

	// image is Micro's words and Table, decoded once and shared: every
	// machine that installs the Program points at it (core.Image).
	image *core.Image
}

// newProgram builds p's image.
func newProgram(p *Program) (*Program, error) {
	img, err := core.NewImage(&p.Micro.Words, &p.Table)
	if err != nil {
		return nil, &InstallError{Emulator: p.Name, Stage: "image", Err: err}
	}
	p.image = img
	return p, nil
}

// InstallOn loads the emulator into a machine: microstore and IFU decode
// table, which the machine then shares with every other machine running
// this emulator until it writes one, base registers, RM pointer
// registers, and task 0 boot at the dispatch loop. The macroprogram bytes
// must already be in memory at VACode (see LoadCode).
func (p *Program) InstallOn(m *core.Machine) {
	m.Install(p.image)
	u := m.IFU()
	mem := m.Mem()
	mem.SetBase(MBSys, 0)
	mem.SetBase(MBCode, VACode)
	mem.SetBase(MBLocal, VAFrames) // first frame; calls rebase
	mem.SetBase(MBGlobal, VAGlobal)
	mem.SetBase(MBStack, VAStack)
	mem.SetBase(MBHeap, VAHeap)
	u.SetCodeBase(VACode)

	// Frame free list: frame 0 is the boot frame (live); 1..frameCount-1
	// linked through word 0.
	mem.Poke(AVHead, VAFrames+1*frameWords)
	for f := 1; f < frameCount; f++ {
		next := uint16(VAFrames + (f+1)*frameWords)
		if f == frameCount-1 {
			next = 0
		}
		mem.Poke(uint32(VAFrames+f*frameWords), next)
	}

	mem.Poke(HPHead, VAHeap)

	m.SetRM(rZero, 0)
	m.SetRM(rOne, 1)
	m.SetRM(rAV, AVHead)
	m.SetRM(rL, VAFrames)
	m.SetRM(rSP, VAStack) // empty memory evaluation stack
	m.SetRM(rGP, VABind)  // empty binding stack
	m.SetMemBase(p.RestMB)
	m.Start(p.Boot)
	u.Reset(0, m.Cycle())
}

// LispStack reads the Lisp memory evaluation stack as (tag, value) pairs,
// bottom first (the Lisp emulator keeps its stack in memory at VAStack,
// with the pointer in RM register 12).
func LispStack(m *core.Machine) [][2]uint16 {
	sp := uint32(m.RM(rSP))
	var out [][2]uint16
	for a := uint32(VAStack); a+1 < sp; a += 2 {
		out = append(out, [2]uint16{m.Mem().Peek(a), m.Mem().Peek(a + 1)})
	}
	return out
}

// LoadCode writes a macroinstruction byte stream at VACode.
func LoadCode(m *core.Machine, code []byte) {
	mem := m.Mem()
	for i := 0; i+1 < len(code); i += 2 {
		mem.Poke(VACode+uint32(i/2), uint16(code[i])<<8|uint16(code[i+1]))
	}
	if len(code)%2 == 1 {
		mem.Poke(VACode+uint32(len(code)/2), uint16(code[len(code)-1])<<8)
	}
}

// bundled returns the accessor of a bundled emulator. The first call
// assembles the boot microcode plus emit's handlers and has finish build
// the decode table; every call returns that one Program. The sources are
// constants, so an error is a bug in this package that every test sees,
// and it panics, as masm.Program.MustEntry does.
func bundled(emit func(*masm.Builder), finish func(*masm.Program, string) (*Program, error)) func() *Program {
	return sync.OnceValue(func() *Program {
		b := masm.NewBuilder()
		emitBoot(b)
		emit(b)
		p, err := b.Assemble()
		if err != nil {
			panic(err)
		}
		prog, err := finish(p, "")
		if err != nil {
			panic(err)
		}
		return prog
	})
}

// Boot emits the shared boot/trap microcode into b: a dispatch entry, an
// illegal-opcode halt, and the HALT opcode handler. It returns the labels.
func emitBoot(b *masm.Builder) {
	b.EmitAt("boot", masm.I{Flow: masm.IFUJump()})
	b.EmitAt("illegal", masm.I{FF: microcode.FFHalt, Flow: masm.Self()})
	b.EmitAt("op.halt", masm.I{FF: microcode.FFHalt, Flow: masm.Self()})
}

// resolve fills an IFU decode table from handler labels.
type opdef struct {
	op       uint8
	name     string
	label    string
	operands int
	wide     bool
}

func buildTable(p *masm.Program, prefix string, defs []opdef) ([256]ifu.Entry, map[string]uint8, error) {
	var table [256]ifu.Entry
	ops := map[string]uint8{}
	for _, d := range defs {
		h, err := p.Entry(prefix + d.label)
		if err != nil {
			return table, nil, err
		}
		if table[d.op].Valid {
			return table, nil, fmt.Errorf("emulator: opcode %#02x defined twice", d.op)
		}
		table[d.op] = ifu.Entry{
			Valid: true, Handler: h, Operands: d.operands, Wide: d.wide, Name: d.name,
		}
		ops[d.name] = d.op
	}
	return table, ops, nil
}
