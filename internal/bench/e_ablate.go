package bench

import (
	"fmt"

	"dorado/internal/core"
	"dorado/internal/device"
	"dorado/internal/emulator"
	"dorado/internal/masm"
	"dorado/internal/microcode"
)

// mesaWorkload emits a representative Mesa byte program: a loop over
// locals, arithmetic, and field extraction — the dependency-dense code the
// bypass and branch arguments are about.
func mesaWorkload(a *emulator.Asm) {
	a.OpB("LIB", 40).OpB("SL", 4) // i = 40
	a.OpB("LIB", 0).OpB("SL", 5)  // acc = 0
	a.Label("loop")
	a.OpB("LL", 5).OpB("LL", 4).Op("ADD").OpB("SL", 5)
	a.OpW("LIW", 0x0100).OpW("RF", emulator.ExtractCtl(2, 6)).Op("DROP")
	a.OpB("LL", 4).OpW("LIW", 1).Op("SUB").OpB("SL", 4)
	a.OpB("LL", 4).OpL("JNZ", "loop")
	a.OpB("LL", 5)
	a.Op("HALT")
}

// runMesaWorkload runs the workload on a machine built from the given
// microcode program and options; it returns (cycles, result on stack).
func runMesaWorkload(micro *masm.Program, table *emulator.Program, opts core.Options) (uint64, uint16, error) {
	m, err := core.New(core.Config{Options: opts})
	if err != nil {
		return 0, 0, err
	}
	a := emulator.NewAsm(table)
	mesaWorkload(a)
	if err := a.Install(m); err != nil {
		return 0, 0, err
	}
	table.InstallOn(m)
	if micro != nil {
		m.Load(&micro.Words) // replacement microcode (e.g. padded)
	}
	if !m.Run(10_000_000) {
		return 0, 0, fmt.Errorf("bench: workload did not halt")
	}
	return m.Cycle(), m.Stack(1), nil
}

// E10BypassAblation reproduces §5.6: Model 0's missing bypasses forced
// NOP padding, "a significant loss of performance" — and unpadded code on
// such a machine has "a number of subtle bugs" (wrong answers).
func E10BypassAblation() Table {
	const title = "Data bypassing: Model 1 vs Model 0"
	const claim = `"In the Model 0 Dorado, we omitted bypassing logic in a few places ... The result was a number of subtle bugs and a significant loss of performance" (§5.6)`
	table := emulator.Mesa()
	paddedTable, pads, err := emulator.BuildMesaPadded()
	if err != nil {
		return fail("E10", title, err)
	}

	baseCycles, baseResult, err := runMesaWorkload(nil, table, core.Options{})
	if err != nil {
		return fail("E10", title, err)
	}
	padCycles, padResult, err := runMesaWorkload(nil, paddedTable, core.Options{})
	if err != nil {
		return fail("E10", title, err)
	}
	// Unpadded microcode on the bypass-free machine: wrong answer (the
	// "subtle bugs"). It may also wander — cap and compare results only.
	_, buggyResult, buggyErr := runMesaWorkload(nil, table, core.Options{NoBypass: true})

	slowdown := float64(padCycles)/float64(baseCycles) - 1
	buggy := buggyErr != nil || buggyResult != baseResult
	pass := padResult == baseResult && slowdown > 0.02 && buggy
	buggyNote := "wrong result (did not halt)"
	if buggyErr == nil {
		buggyNote = fmt.Sprintf("wrong result: %d vs %d", buggyResult, baseResult)
	}
	if !buggy {
		buggyNote = "unexpectedly correct"
	}
	return Table{
		ID: "E10", Title: title, Claim: claim,
		Rows: []Row{
			{"bypassed (Model 1)", "baseline", fmt.Sprintf("%d cycles", baseCycles), fmt.Sprintf("result %d", baseResult)},
			{"padded for no bypass", "significant loss", fmt.Sprintf("%d cycles (+%s)", padCycles, pct(slowdown)), fmt.Sprintf("%d NOPs inserted into the emulator", pads)},
			{"unpadded on Model 0", "subtle bugs", "incorrect", buggyNote},
		},
		Pass: pass,
	}
}

// E11BranchAblation reproduces §5.5's branch argument: folding the
// condition into the low NEXTPC bit costs zero cycles, where the
// conventional design inserts one dead cycle per conditional branch.
func E11BranchAblation() Table {
	const title = "Conditional branch cost: late-select vs delayed"
	const claim = `branches use the late-arriving condition "so the late arriving branch condition does not increase the total cycle time"; the alternative "inserts ... an extra cycle" (§5.5)`
	table := emulator.Mesa()
	baseCycles, baseResult, err := runMesaWorkload(nil, table, core.Options{})
	if err != nil {
		return fail("E11", title, err)
	}
	delCycles, delResult, err := runMesaWorkload(nil, table, core.Options{DelayedBranch: true})
	if err != nil {
		return fail("E11", title, err)
	}
	slowdown := float64(delCycles)/float64(baseCycles) - 1
	pass := baseResult == delResult && delCycles > baseCycles && slowdown > 0.01
	return Table{
		ID: "E11", Title: title, Claim: claim,
		Rows: []Row{
			{"late condition select", "0 extra cycles", fmt.Sprintf("%d cycles", baseCycles), "condition ORed into NEXTPC low bit"},
			{"delayed-branch design", "+1 cycle/branch", fmt.Sprintf("%d cycles (+%s)", delCycles, pct(slowdown)), "same result, dead cycle per branch"},
		},
		Pass: pass,
	}
}

// E12HoldVsAlternatives reproduces §5.7: Hold vs the two rejected designs
// (fixed worst-case wait; explicit polling), including the concurrency
// argument — held cycles are harvested by other tasks, polled ones are not.
func E12HoldVsAlternatives() Table {
	const title = "Memory synchronization: Hold vs fixed-wait vs polling"
	const claim = `"Two simple techniques are to wait a fixed (unfortunately, maximum) time ... or to explicitly poll the memory ... Neither is satisfactory" (§5.7)`

	// Workload: 256 fetch+use pairs over a warm region (hit-dominated),
	// plus 64 misses (stride past the cache).
	build := func(poll bool) *masm.Builder {
		b := masm.NewBuilder()
		b.EmitAt("start", masm.I{Const: 0x00FF, HasConst: true, ALU: microcode.ALUB, FF: 0, LC: microcode.LCLoadRM, R: 2})
		b.Emit(masm.I{B: microcode.BSelRM, R: 2, FF: microcode.FFPutCount})
		b.Emit(masm.I{Const: 0, HasConst: true, ALU: microcode.ALUB, LC: microcode.LCLoadRM, R: 1})
		b.EmitAt("loop", masm.I{A: microcode.ASelFetch, R: 1, ALU: microcode.ALUAplus1, LC: microcode.LCLoadRM})
		if poll {
			b.EmitAt("poll", masm.I{FF: microcode.FFProbeMD})
			b.Emit(masm.I{Flow: masm.Branch(microcode.CondMB, "poll", "ready")})
			b.EmitAt("ready", masm.I{ALU: microcode.ALUB, B: microcode.BSelMD, LC: microcode.LCLoadT})
		} else {
			b.Emit(masm.I{ALU: microcode.ALUB, B: microcode.BSelMD, LC: microcode.LCLoadT})
		}
		b.Emit(masm.I{Flow: masm.Branch(microcode.CondCountNZ, "", "loop")})
		b.Halt()
		// A competing device-service routine (two instructions): take the
		// word and count it.
		b.EmitAt("svc", masm.I{FF: microcode.FFInput, ALU: microcode.ALUAplus1,
			A: microcode.ASelRM, R: 3, LC: microcode.LCLoadRM})
		b.Emit(masm.I{Block: true, Flow: masm.Goto("svc")})
		return b
	}
	run := func(poll bool, opts core.Options, withDevice bool) (cycles uint64, services uint16, err error) {
		b := build(poll)
		p, err := b.Assemble()
		if err != nil {
			return 0, 0, err
		}
		m, err := core.New(core.Config{Options: opts})
		if err != nil {
			return 0, 0, err
		}
		m.Load(&p.Words)
		m.Start(p.MustEntry("start"))
		if withDevice {
			src := device.NewWordSource(12, 40, 1)
			if err := m.Attach(src); err != nil {
				return 0, 0, err
			}
			m.SetIOAddress(12, 12)
			m.SetTPC(12, p.MustEntry("svc"))
		}
		if !m.Run(1_000_000) {
			return 0, 0, fmt.Errorf("bench: hold workload did not halt")
		}
		return m.Cycle(), m.RM(3), nil
	}

	holdC, holdSvc, err := run(false, core.Options{}, true)
	if err != nil {
		return fail("E12", title, err)
	}
	fixedC, _, err := run(false, core.Options{FixedWaitMemory: true}, true)
	if err != nil {
		return fail("E12", title, err)
	}
	pollC, pollSvc, err := run(true, core.Options{}, true)
	if err != nil {
		return fail("E12", title, err)
	}
	fixedSlow := float64(fixedC) / float64(holdC)
	pollSlow := float64(pollC) / float64(holdC)
	pass := fixedSlow > 3 && pollSlow > 1.2 && holdSvc > 0 && pollSvc > 0
	return Table{
		ID: "E12", Title: title, Claim: claim,
		Rows: []Row{
			{"Hold (Dorado)", "baseline", fmt.Sprintf("%d cycles", holdC), fmt.Sprintf("%d device services absorbed", holdSvc)},
			{"fixed worst-case wait", "unsatisfactory", fmt.Sprintf("%d cycles (%.1f× slower)", fixedC, fixedSlow), "every hit pays the miss latency"},
			{"explicit polling", "unsatisfactory", fmt.Sprintf("%d cycles (%.1f× slower)", pollC, pollSlow), fmt.Sprintf("%d services; poll burns issue slots", pollSvc)},
		},
		Pass: pass,
	}
}
