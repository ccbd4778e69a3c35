package bench

import (
	"fmt"

	"dorado/internal/core"
	"dorado/internal/device"
	"dorado/internal/masm"
	"dorado/internal/microcode"
	"dorado/internal/trace"
)

// ioMachine assembles a microcode program with program, builds a machine
// from cfg that loads it, and starts task 0 at the program's emu loop (an
// endless counting loop standing in for the emulator).
func ioMachine(program func() (*masm.Program, error), cfg core.Config) (*core.Machine, *masm.Program, error) {
	p, err := program()
	if err != nil {
		return nil, nil, err
	}
	m, err := core.New(cfg)
	if err != nil {
		return nil, nil, err
	}
	m.Load(&p.Words)
	m.Start(p.MustEntry("emu"))
	return m, p, nil
}

// emuLoop emits the background emulator: RM0 counts cycles it gets.
func emuLoop(b *masm.Builder) {
	b.EmitAt("emu", masm.I{ALU: microcode.ALUAplus1, A: microcode.ASelRM, R: 0,
		LC: microcode.LCLoadRM, Flow: masm.Goto("emu")})
}

// E4DiskUtilization reproduces: "the microcode for the disk takes three
// cycles to transfer two words ...; thus the 10 megabit/sec disk consumes
// 5% of the processor" (§7).
func E4DiskUtilization() Table {
	const title = "Disk at 10 Mbit/s: processor share"
	const claim = `"the 10 megabit/sec disk consumes 5% of the processor"; 3 cycles per 2 words (§7)`
	m, disk, err := buildDisk(core.Config{})
	if err != nil {
		return fail("E4", title, err)
	}
	const run = 400_000
	m.Run(run)
	st := m.Stats()
	util := st.Utilization(11)
	delivered := trace.MBits(float64(disk.Consumed())*16, m.Cycle())
	pass := util > 0.04 && util < 0.08 && disk.Overruns() == 0 && delivered > 9
	return Table{
		ID: "E4", Title: title, Claim: claim,
		Rows: []Row{
			{"processor share", "5%", pct(util), fmt.Sprintf("%d of %d cycles", st.TaskCycles[11], st.Cycles)},
			{"delivered rate", "10 Mbit/s", f1(delivered) + " Mbit/s", fmt.Sprintf("%d words, %d overruns", disk.Consumed(), disk.Overruns())},
			{"µinst per 2 words", "3", "3", "by construction; see the microcode"},
		},
		Pass: pass,
	}
}

// E5FastIO reproduces: "The fast I/O microcode for the display takes only
// two instructions to transfer a 16 word block ... can consume the
// available memory bandwidth for I/O (530 megabits/sec) using only one
// quarter of the available microcycles" (§7, §6.2.1).
func E5FastIO() Table {
	const title = "Fast I/O display at full storage bandwidth"
	const claim = `"530 megabits/sec using only one quarter of the available microcycles"; 2 µinst per 16-word block (§7)`
	m, disp, err := buildFastIO(core.Config{}, fastioProgram)
	if err != nil {
		return fail("E5", title, err)
	}
	const run = 200_000
	m.Run(run)
	st := m.Stats()
	util := st.Utilization(13)
	bw := trace.MBits(float64(disp.BlocksMoved())*16*16, m.Cycle())
	pass := bw > 480 && bw < 560 && util > 0.2 && util < 0.3 && disp.Underruns() == 0
	return Table{
		ID: "E5", Title: title, Claim: claim,
		Rows: []Row{
			{"I/O bandwidth", "530 Mbit/s", f1(bw) + " Mbit/s", fmt.Sprintf("%d blocks, %d underruns", disp.BlocksMoved(), disp.Underruns())},
			{"processor share", "25%", pct(util), "2 µinst per 8-cycle block"},
		},
		Pass: pass,
	}
}

// E6SlowIO reproduces: "The data bus can transfer a word per cycle, or 265
// megabits/second, and both the memory reference and the I/O transfer can
// be specified in a single instruction" (§5.8).
func E6SlowIO() Table {
	const title = "Slow I/O peak rate"
	const claim = `"a word per cycle, or 265 megabits/second ... memory reference and I/O transfer in a single instruction" (§5.8)`
	m, p, err := ioMachine(slowioProgram, core.Config{})
	if err != nil {
		return fail("E6", title, err)
	}
	lb := device.NewLoopback(9)
	if err := m.Attach(lb); err != nil {
		return fail("E6", title, err)
	}
	m.SetIOAddress(9, 9)
	m.SetTPC(9, p.MustEntry("burst"))
	m.SetRM(1, 0x6000)
	const words = 2000
	m.SetCount(words)
	// The paper's rate assumes the cache absorbs the stores; warm the lines.
	for a := uint32(0x6000); a < 0x6000+words+16; a += 16 {
		m.Mem().Warm(a)
	}
	lb.Arm(true)
	start := m.Cycle()
	for m.Cycle() < 100_000 {
		m.Step()
		if in, _ := lb.Words(); in >= words {
			break
		}
	}
	lb.Arm(false)
	in, _ := lb.Words()
	elapsed := m.Cycle() - start
	bw := trace.MBits(float64(in)*16, elapsed)
	perWord := float64(elapsed) / float64(in)
	pass := bw > 220 && bw <= 270
	return Table{
		ID: "E6", Title: title, Claim: claim,
		Rows: []Row{
			{"IODATA rate", "265 Mbit/s", f1(bw) + " Mbit/s", fmt.Sprintf("%d words in %d cycles", in, elapsed)},
			{"cycles/word", "1", f2(perWord), "store + input + pointer + loop in one instruction"},
		},
		Pass: pass,
	}
}

// E8GrainAblation reproduces §6.2.1's design argument: with the 2-cycle
// grain, full-bandwidth fast I/O needs 25% of the processor; the simpler
// explicit-notify design raises the grain to 3 cycles and the share to
// 37.5%.
func E8GrainAblation() Table {
	const title = "Task-allocation grain: 2-cycle vs 3-cycle"
	const claim = `"A two cycle grain thus allows the full memory bandwidth ... using only 25% of the processor ... [with explicit notification] 37.5% of the processor would be needed" (§6.2.1)`
	run := func(explicit bool) (util float64, bw float64, err error) {
		program := fastioProgram
		if explicit {
			// Grain 3: the acknowledgement occupies the first instruction
			// and the task cannot block before its third.
			b := masm.NewBuilder()
			emuLoop(b)
			b.EmitAt("disp", masm.I{A: microcode.ASelT, B: microcode.BSelRM, R: 2,
				ALU: microcode.ALUAplusB, LC: microcode.LCLoadRM, FF: microcode.FFOutput})
			b.Emit(masm.I{FF: microcode.FFIOAttenAck})
			b.Emit(masm.I{Block: true, Flow: masm.Goto("disp")})
			program = b.Assemble
		}
		m, disp, err := buildFastIO(core.Config{Options: core.Options{ExplicitNotify: explicit}}, program)
		if err != nil {
			return 0, 0, err
		}
		m.Run(200_000)
		st := m.Stats()
		return st.Utilization(13), trace.MBits(float64(disp.BlocksMoved())*16*16, m.Cycle()), nil
	}
	u2, bw2, err := run(false)
	if err != nil {
		return fail("E8", title, err)
	}
	u3, bw3, err := run(true)
	if err != nil {
		return fail("E8", title, err)
	}
	pass := u2 > 0.2 && u2 < 0.3 && u3 > 0.32 && u3 < 0.45 && bw2 > 480 && bw3 > 480
	return Table{
		ID: "E8", Title: title, Claim: claim,
		Rows: []Row{
			{"grain 2 (NEXT bus)", "25%", pct(u2), f1(bw2) + " Mbit/s delivered"},
			{"grain 3 (explicit notify)", "37.5%", pct(u3), f1(bw3) + " Mbit/s delivered"},
		},
		Pass: pass,
	}
}
