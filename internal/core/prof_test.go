package core

import (
	"bytes"
	"testing"

	"dorado/internal/masm"
	"dorado/internal/microcode"
)

// profTestProgram is the ALU differential scenario reused as a profiling
// subject: a hot loop with CALL/RETURN and a COUNT branch, so translation
// builds blocks and the profile contains both generic and fused cycles.
func profTestProgram(t *testing.T) *masm.Program {
	t.Helper()
	bl := masm.NewBuilder()
	bl.EmitAt("start", masm.I{ALU: microcode.ALUB, Const: 0x00FF, HasConst: true, LC: microcode.LCLoadT})
	bl.Emit(masm.I{FF: microcode.FFCountBase + 9, Flow: masm.Goto("loop")})
	bl.EmitAt("loop", masm.I{ALU: microcode.ALUAplus1, A: microcode.ASelT, LC: microcode.LCLoadT})
	bl.Emit(masm.I{FF: microcode.FFPutQ, ALU: microcode.ALUAplusB, A: microcode.ASelT, B: microcode.BSelRM, R: 1, LC: microcode.LCLoadRM, Flow: masm.Call("sub")})
	bl.Emit(masm.I{FF: microcode.FFRMDestBase + 5, ALU: microcode.ALUAxorB, A: microcode.ASelT, B: microcode.BSelQ, LC: microcode.LCLoadRM, R: 1})
	bl.Emit(masm.I{ALU: microcode.ALUAminusB, A: microcode.ASelRM, R: 5, B: microcode.BSelT,
		Flow: masm.Branch(microcode.CondCountNZ, "done", "loop")})
	bl.EmitAt("done", masm.I{FF: microcode.FFHalt, Flow: masm.Self()})
	bl.EmitAt("sub", masm.I{ALU: microcode.ALUAorB, A: microcode.ASelT, B: microcode.BSelQ,
		LC: microcode.LCLoadT, Flow: masm.Return()})
	return mustProgram(t, bl)
}

func profTestMachine(t *testing.T, p *masm.Program, cfg Config) *Machine {
	t.Helper()
	cfg.Memory = smallMem
	m, err := New(cfg)
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	m.Load(&p.Words)
	m.SetRM(1, 0x1234)
	m.Start(p.MustEntry("start"))
	return m
}

// TestProfilerAttributionSums: on every execution path, the profiler must
// account for each simulated cycle exactly once — the sum of per-address
// Cycles equals the machine's cycle counter, and each address's held plus
// executed cycles never exceed its total (DelayedBranch stall cycles are
// charged but neither held nor executed).
func TestProfilerAttributionSums(t *testing.T) {
	p := profTestProgram(t)
	for _, tc := range []struct {
		name string
		cfg  Config
	}{
		{"reference", Config{Reference: true}},
		{"predecoded", Config{}},
		{"translated", Config{Translation: translateTestCfg}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			m := profTestMachine(t, p, tc.cfg)
			prof := NewProfiler()
			m.SetProfiler(prof)
			m.RunCycles(500)
			s := prof.Snapshot()
			var cycles, executed, holds uint64
			for _, a := range s.Addrs {
				cycles += a.Cycles
				executed += a.Executed
				holds += a.Holds
				if a.Executed+a.Holds > a.Cycles {
					t.Errorf("%s: addr %s held+executed %d exceeds cycles %d",
						tc.name, a.Addr, a.Executed+a.Holds, a.Cycles)
				}
			}
			if cycles != m.Cycle() {
				t.Errorf("%s: attributed %d cycles, machine ran %d", tc.name, cycles, m.Cycle())
			}
			if executed == 0 {
				t.Errorf("%s: no executed instructions attributed", tc.name)
			}
			if holds != m.Stats().Holds {
				t.Errorf("%s: attributed %d holds, machine counted %d", tc.name, holds, m.Stats().Holds)
			}
		})
	}
}

// TestProfilerBlockAccounting: on the translated path the block table must
// balance — every block's entries equal its non-guard-fail exits, the
// machine-wide exit counters equal the per-block sums, and the fused cycles
// charged to blocks equal the translator's FusedCycles stat.
func TestProfilerBlockAccounting(t *testing.T) {
	p := profTestProgram(t)
	m := profTestMachine(t, p, Config{Translation: translateTestCfg})
	prof := NewProfiler()
	m.SetProfiler(prof)
	// Prime the differential harness cadence: short chunks expire the cycle
	// budget mid-superblock, exercising the ExitLimit path too.
	for i := 0; i < 80; i++ {
		m.RunCycles(7)
	}
	s := prof.Snapshot()
	if len(s.Blocks) == 0 {
		t.Fatal("no superblocks profiled on a hot loop")
	}
	var total [NumExitReasons]uint64
	var fused uint64
	for _, b := range s.Blocks {
		if b.Compiled == 0 {
			t.Errorf("block %s: entered but never compiled", b.Start)
		}
		if b.Instructions < 2 {
			t.Errorf("block %s: %d fused instructions, want >= 2", b.Start, b.Instructions)
		}
		var exits, pcs uint64
		for r, n := range b.Exits {
			total[r] += n
			if ExitReason(r) != ExitGuardFail {
				exits += n
			}
		}
		for _, pc := range b.ExitPCs {
			pcs += pc.Count
		}
		if b.Entries != exits {
			t.Errorf("block %s: %d entries but %d non-guard-fail exits", b.Start, b.Entries, exits)
		}
		if allExits := exits + b.Exits[ExitGuardFail]; pcs != allExits {
			t.Errorf("block %s: exit-PC histogram sums to %d, want %d", b.Start, pcs, allExits)
		}
		fused += b.Cycles
	}
	if total != s.Exits {
		t.Errorf("machine-wide exits %v != per-block sum %v", s.Exits, total)
	}
	if st := m.TranslationStats(); fused != st.FusedCycles {
		t.Errorf("blocks charged %d fused cycles, translator counted %d", fused, st.FusedCycles)
	}
	if s.Exits[ExitBranch] == 0 {
		t.Errorf("branch-terminated loop recorded no branch exits: %v", s.Exits)
	}
	if s.Exits[ExitLimit] == 0 {
		t.Errorf("prime-chunk cadence recorded no limit exits: %v", s.Exits)
	}
}

// TestProfilerDoesNotPerturb: attaching a profiler must not change the
// simulation — snapshots with and without one stay byte-identical on the
// translated path (where the profiler threads through the fused loops).
func TestProfilerDoesNotPerturb(t *testing.T) {
	p := profTestProgram(t)
	plain := profTestMachine(t, p, Config{Translation: translateTestCfg})
	profiled := profTestMachine(t, p, Config{Translation: translateTestCfg})
	profiled.SetProfiler(NewProfiler())
	for i := 0; i < 40; i++ {
		plain.RunCycles(7)
		profiled.RunCycles(7)
		a, b := plain.Snapshot(), profiled.Snapshot()
		if !bytes.Equal(a, b) {
			t.Fatalf("profiled snapshot diverges at cycle %d", plain.Cycle())
		}
	}
}

// TestProfilerOffNoAllocs: with no profiler attached the hot loops must not
// allocate per cycle — the acceptance criterion guarding the prof-off path.
func TestProfilerOffNoAllocs(t *testing.T) {
	if testing.Short() {
		t.Skip("alloc measurement")
	}
	p := profTestProgram(t)
	for _, tc := range []struct {
		name string
		cfg  Config
	}{
		{"predecoded", Config{}},
		{"translated", Config{Translation: translateTestCfg}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			m := profTestMachine(t, p, tc.cfg)
			m.RunCycles(2000) // warm up: compile any superblocks first
			if avg := testing.AllocsPerRun(10, func() { m.RunCycles(500) }); avg != 0 {
				t.Errorf("prof-off %s path allocates %.1f per run slice", tc.name, avg)
			}
		})
	}
}

// TestExitReasonStrings: the wire names are stable and total.
func TestExitReasonStrings(t *testing.T) {
	want := []string{
		"fallthrough", "branch", "ifujump", "task_switch",
		"device_wakeup", "hold", "limit", "halt", "guard_fail",
	}
	if int(NumExitReasons) != len(want) {
		t.Fatalf("NumExitReasons = %d, want %d", NumExitReasons, len(want))
	}
	for r := ExitReason(0); r < NumExitReasons; r++ {
		if r.String() != want[r] {
			t.Errorf("ExitReason(%d).String() = %q, want %q", r, r.String(), want[r])
		}
	}
	if ExitReason(250).String() != "unknown" {
		t.Error("out-of-range reason did not stringify as unknown")
	}
	aborts := map[ExitReason]bool{
		ExitTaskSwitch: true, ExitDeviceWakeup: true, ExitHold: true, ExitGuardFail: true,
	}
	for r := ExitReason(0); r < NumExitReasons; r++ {
		if r.Abort() != aborts[r] {
			t.Errorf("ExitReason %s Abort() = %v, want %v", r, r.Abort(), aborts[r])
		}
	}
}
