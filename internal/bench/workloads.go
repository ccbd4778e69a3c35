package bench

import (
	"dorado/internal/bitblt"
	"dorado/internal/core"
	"dorado/internal/device"
	"dorado/internal/emulator"
	"dorado/internal/masm"
	"dorado/internal/mesac"
	"dorado/internal/microcode"
)

// This file holds the machine-level builders for the §7 workload families.
// Each returns a fully set up machine — microcode loaded, devices attached,
// task 0 started — that the caller then drives: the differential tests run
// both interpreter paths to completion and compare (diff_test.go), the
// host benchmark times RunCycles (host.go), and the checkpoint tests run,
// snapshot, restore and resume (snapshot_test.go).

// Workload is one §7 workload family as a runnable machine.
type Workload struct {
	ID    string
	Name  string
	Build func(cfg core.Config) (*core.Machine, error)
}

// Workloads returns the §7 families: the Mesa emulator mix, the disk
// transfer idiom, fast I/O at full memory bandwidth, slow I/O through
// IODATA, and BitBlt.
func Workloads() []Workload {
	return []Workload{
		{ID: "emulator", Name: "Mesa emulator mix (IFU dispatch, frame load/store, branch)", Build: BuildEmulatorMachine},
		{ID: "disk", Name: "Disk transfer, 3 cycles per 2 words (§7)", Build: BuildDiskMachine},
		{ID: "fastio", Name: "Fast I/O display at full memory bandwidth (§7)", Build: BuildFastIOMachine},
		{ID: "slowio", Name: "Slow I/O loopback through IODATA (§7)", Build: BuildSlowIOMachine},
		{ID: "bitblt", Name: "BitBlt merge, src/dst/filter (§7)", Build: BuildBitBltMachine},
		{ID: "mesacalls", Name: "Compiled Mesa: recursive calls, multiply/add and shift/xor loops", Build: BuildMesaCallsMachine},
	}
}

// mesaCallsSource is a compiled-Mesa program of the shape perfbench's
// Mesa sessions run (its emulate workload at seed 7): an endless main
// loop over three instances each of a recursive kernel (CALL/RET), a
// multiply/add loop and a shift/xor loop.
const mesaCallsSource = `func rec0(n) { if n < 2 { return n + 13; } return rec0(n - 1) + rec0(n - 2); }
func mix0(a, b) { var i = 0; while i < 9 { a = a * 17 + b; b = b ^ (a << 3); i = i + 1; } return a - b; }
func bits0(x) { var c = 0; var i = 0; while i < 9 { c = c + (x & 11); x = (x ^ (x << 2)) | 45516; i = i + 1; } return c; }
func rec1(n) { if n < 2 { return n + 9; } return rec1(n - 1) + rec1(n - 2); }
func mix1(a, b) { var i = 0; while i < 9 { a = a * 5 + b; b = b ^ (a << 6); i = i + 1; } return a - b; }
func bits1(x) { var c = 0; var i = 0; while i < 9 { c = c + (x & 199); x = (x ^ (x << 4)) | 30377; i = i + 1; } return c; }
func rec2(n) { if n < 2 { return n + 15; } return rec2(n - 1) + rec2(n - 2); }
func mix2(a, b) { var i = 0; while i < 9 { a = a * 17 + b; b = b ^ (a << 5); i = i + 1; } return a - b; }
func bits2(x) { var c = 0; var i = 0; while i < 9 { c = c + (x & 44); x = (x ^ (x << 1)) | 45034; i = i + 1; } return c; }
var acc = 30719;
global 1 = 1;
while 1 {
    acc = acc ^ bits0(acc);
    acc = mix1(acc, 12970);
    acc = acc ^ bits2(acc);
    acc = acc + rec2(7);
    acc = mix2(acc, 38683);
    acc = mix0(acc, 53759);
    acc = acc + rec1(7);
    acc = acc + rec0(7);
    acc = acc ^ bits1(acc);
    global 2 = acc;
}
`

// BuildMesaCallsMachine boots the Mesa emulator on mesaCallsSource: the
// call-heavy compiled mix (CALL/RET, wide operands, frequent IFU resets)
// that the four-opcode emulator loop lacks.
func BuildMesaCallsMachine(cfg core.Config) (*core.Machine, error) {
	m, err := core.New(cfg)
	if err != nil {
		return nil, err
	}
	mesa := emulator.Mesa()
	p, err := mesac.Compile(mesaCallsSource)
	if err != nil {
		return nil, err
	}
	p.InstallOn(m)
	mesa.InstallOn(m)
	return m, nil
}

// BuildEmulatorMachine boots the Mesa emulator on an endless
// macroinstruction loop: dispatch, operand fetch, frame load/store, and a
// taken conditional jump every iteration — the steady-state emulator mix.
func BuildEmulatorMachine(cfg core.Config) (*core.Machine, error) {
	m, err := core.New(cfg)
	if err != nil {
		return nil, err
	}
	mesa := emulator.Mesa()
	a := emulator.NewAsm(mesa)
	a.OpB("LIB", 40)
	a.OpB("SL", 4)
	a.Label("loop")
	a.OpB("LL", 4)
	a.Op("DUP")
	a.OpB("SL", 4)
	a.OpL("JNZ", "loop") // always taken: the loop never exits
	if err := a.Install(m); err != nil {
		return nil, err
	}
	mesa.InstallOn(m)
	return m, nil
}

// diskProgram assembles the E4 microcode: the counting emulator plus the
// 3-cycles-per-2-words disk loop, word 1 via T and word 2 straight from
// IODATA to memory (§5.8). Split from BuildDiskMachine so E4 and
// profiling runs can reach the program.
func diskProgram() (*masm.Program, error) {
	b := masm.NewBuilder()
	emuLoop(b)
	b.EmitAt("disk", masm.I{FF: microcode.FFInput, ALU: microcode.ALUB, LC: microcode.LCLoadT})
	b.Emit(masm.I{A: microcode.ASelStore, R: 1, B: microcode.BSelT,
		ALU: microcode.ALUAplus1, LC: microcode.LCLoadRM})
	b.Emit(masm.I{A: microcode.ASelStore, R: 1, FF: microcode.FFInput,
		ALU: microcode.ALUAplus1, LC: microcode.LCLoadRM,
		Block: true, Flow: masm.Goto("disk")})
	return b.Assemble()
}

// BuildDiskMachine is the E4 machine: the counting emulator in task 0 plus
// the 3-cycles-per-2-words disk microcode woken by a word source.
func BuildDiskMachine(cfg core.Config) (*core.Machine, error) {
	m, _, err := buildDisk(cfg)
	return m, err
}

// buildDisk builds BuildDiskMachine's machine and returns its disk too.
func buildDisk(cfg core.Config) (*core.Machine, *device.WordSource, error) {
	m, p, err := ioMachine(diskProgram, cfg)
	if err != nil {
		return nil, nil, err
	}
	// 16 bits / 10 Mbit/s = 1.6 µs ≈ 27 cycles per word.
	disk := device.NewWordSource(11, 27, 2)
	if err := m.Attach(disk); err != nil {
		return nil, nil, err
	}
	m.SetIOAddress(11, 11)
	m.SetTPC(11, p.MustEntry("disk"))
	m.SetRM(1, 0x6000) // transfer buffer
	return m, disk, nil
}

// fastioProgram assembles the E5 microcode: the counting emulator plus the
// two-instruction display loop, which commands a block (Output) while
// bumping the block pointer, then blocks.
func fastioProgram() (*masm.Program, error) {
	b := masm.NewBuilder()
	emuLoop(b)
	b.EmitAt("disp", masm.I{A: microcode.ASelT, B: microcode.BSelRM, R: 2,
		ALU: microcode.ALUAplusB, LC: microcode.LCLoadRM, FF: microcode.FFOutput})
	b.Emit(masm.I{Block: true, Flow: masm.Goto("disp")})
	return b.Assemble()
}

// BuildFastIOMachine is the E5 machine: the display consuming full memory
// bandwidth with two microinstructions per 16-word block.
func BuildFastIOMachine(cfg core.Config) (*core.Machine, error) {
	m, _, err := buildFastIO(cfg, fastioProgram)
	return m, err
}

// buildFastIO builds BuildFastIOMachine's machine around program, whose
// display routine starts at disp, and returns its display too.
func buildFastIO(cfg core.Config, program func() (*masm.Program, error)) (*core.Machine, *device.Display, error) {
	m, p, err := ioMachine(program, cfg)
	if err != nil {
		return nil, nil, err
	}
	disp := device.NewDisplay(13, m.Mem(), 8, 4) // one block per 8 cycles: full bandwidth
	disp.SetBase(0x20000)
	if err := m.Attach(disp); err != nil {
		return nil, nil, err
	}
	m.SetIOAddress(13, 13)
	m.SetTPC(13, p.MustEntry("disp"))
	m.SetT(13, 16) // block stride lives in the display task's T
	return m, disp, nil
}

// slowioProgram assembles the E6 microcode: the counting emulator plus the
// burst loop, one instruction per word (IODATA drives B, B goes to
// memory, the pointer increments, and the loop closes on COUNT).
func slowioProgram() (*masm.Program, error) {
	b := masm.NewBuilder()
	emuLoop(b)
	b.EmitAt("burst", masm.I{A: microcode.ASelStore, R: 1, FF: microcode.FFInput,
		ALU: microcode.ALUAplus1, LC: microcode.LCLoadRM,
		Flow: masm.Branch(microcode.CondCountNZ, "burst.done", "burst")})
	b.EmitAt("burst.done", masm.I{Block: true, Flow: masm.Goto("burst")})
	return b.Assemble()
}

// BuildSlowIOMachine is the E6 machine: loopback device, one word per wakeup
// through IODATA, loop closed on COUNT.
func BuildSlowIOMachine(cfg core.Config) (*core.Machine, error) {
	m, p, err := ioMachine(slowioProgram, cfg)
	if err != nil {
		return nil, err
	}
	lb := device.NewLoopback(9)
	if err := m.Attach(lb); err != nil {
		return nil, err
	}
	m.SetIOAddress(9, 9)
	m.SetTPC(9, p.MustEntry("burst"))
	m.SetRM(1, 0x6000)
	m.SetCount(1000)
	for a := uint32(0x6000); a < 0x6000+1016; a += 16 {
		m.Mem().Warm(a)
	}
	lb.Arm(true)
	return m, nil
}

// bitbltParams is the screen-scale merge every BitBlt machine runs: the
// paper's "function of the source object, the destination object and a
// filter", heavy on the shifter/masker path.
var bitbltParams = bitblt.Params{
	Src: 0x10000, Dst: 0x40000, WidthWords: 32, Height: 24,
	SrcPitch: 32, DstPitch: 32, Op: bitblt.Merge, Filter: 0xAAAA,
}

// BuildBitBltMachine is the E3 machine set up mid-call: one merge blit
// started but not run. The machine halts when the blit completes.
func BuildBitBltMachine(cfg core.Config) (*core.Machine, error) {
	ps, err := bitblt.Build()
	if err != nil {
		return nil, err
	}
	m, err := core.New(cfg)
	if err != nil {
		return nil, err
	}
	p := bitbltParams
	for a := p.Src; a < p.Src+uint32(p.SrcPitch*p.Height); a++ {
		m.Mem().Poke(a, uint16(a*2654435761))
	}
	if err := ps.Setup(m, p); err != nil {
		return nil, err
	}
	return m, nil
}

// DevicesBuilder returns a builder for the machine perfbench's devices
// sessions run, from src, the text of examples/microcode/devices.dasm:
// task 0 spins at emu, the disk word source on task 11 (a word every 27
// cycles) is serviced at disk, and the display on task 13 (a block every 8
// cycles from 4 buffered blocks, based at VA 0) at disp, each device on the
// IOADDRESS of its task, as the fleet's device catalog attaches them.
func DevicesBuilder(src string) func(cfg core.Config) (*core.Machine, error) {
	return func(cfg core.Config) (*core.Machine, error) {
		m, _, _, err := buildDevices(cfg, src)
		return m, err
	}
}

// buildDevices builds DevicesBuilder's machine and returns its two
// controllers too.
func buildDevices(cfg core.Config, src string) (*core.Machine, *device.WordSource, *device.Display, error) {
	p, err := masm.AssembleText(src)
	if err != nil {
		return nil, nil, nil, err
	}
	m, err := core.New(cfg)
	if err != nil {
		return nil, nil, nil, err
	}
	disk := device.NewWordSource(11, 27, 2)
	disp := device.NewDisplay(13, m.Mem(), 8, 4)
	disp.SetBase(0)
	for _, d := range []device.Device{disk, disp} {
		if err := m.Attach(d); err != nil {
			return nil, nil, nil, err
		}
		m.SetIOAddress(d.Task(), uint16(d.Task()))
	}
	m.Load(&p.Words)
	m.Start(p.MustEntry("emu"))
	m.SetTPC(11, p.MustEntry("disk"))
	m.SetTPC(13, p.MustEntry("disp"))
	return m, disk, disp, nil
}
