package core

import (
	"bytes"
	"testing"

	"dorado/internal/masm"
	"dorado/internal/microcode"
)

// The interpreter differential harness: every scenario is built once per
// execution path — the reference interpreter (Config.Reference: per-cycle
// decode, 16-slot device scan), the predecoded fast path, and the
// superblock translator — run in lockstep chunks, and compared cycle for
// cycle (tracer stream), at every chunk boundary (snapshot bytes), and at
// the end (full architectural state). A tracer rides along on the fused
// path too, so the translated stream covers superblock cycles. Any
// divergence is a predecode or translation bug by definition.

// recTracer records every trace event.
type recTracer struct {
	events []TraceEvent
}

func (r *recTracer) Trace(ev TraceEvent) { r.events = append(r.events, ev) }

// allPaths are the three execution paths; decodePaths leaves out the
// translator, which New rejects under an Options ablation.
var (
	allPaths    = []Config{{Reference: true}, {}, {Translation: translateTestCfg}}
	decodePaths = allPaths[:2]
)

// pathName labels a machine by its execution path.
func pathName(m *Machine) string {
	switch {
	case m.cfg.Reference:
		return "reference"
	case m.trans != nil:
		return "translated"
	}
	return "predecoded"
}

// diffRun builds the scenario once per path and diffs the machines over
// total cycles in chunks of chunk (see diffMachines). It returns the last
// machine built — the translated one under allPaths.
func diffRun(t *testing.T, name string, total, chunk uint64, paths []Config, build func(cfg Config) (*Machine, error)) *Machine {
	t.Helper()
	machines := make([]*Machine, len(paths))
	for i, cfg := range paths {
		m, err := build(cfg)
		if err != nil {
			t.Fatalf("%s: build %+v: %v", name, cfg, err)
		}
		machines[i] = m
	}
	diffMachines(t, name, total, chunk, machines...)
	return machines[len(machines)-1]
}

// diffMachines runs identically constructed machines in lockstep chunks
// with a tracer on each and fails on the first difference from
// machines[0]: the trace streams event for event, the snapshots byte for
// byte at every chunk boundary, and the full state at the end. A prime
// chunk makes the cycle budget expire mid-superblock over and over.
func diffMachines(t *testing.T, name string, total, chunk uint64, machines ...*Machine) {
	t.Helper()
	tracers := make([]recTracer, len(machines))
	for i, m := range machines {
		m.SetTracer(&tracers[i])
	}
	base := machines[0]
	for done := uint64(0); done < total; done += chunk {
		for i, m := range machines {
			tracers[i].events = tracers[i].events[:0]
			m.Run(min(chunk, total-done))
		}
		want := tracers[0].events
		for i, m := range machines[1:] {
			got := tracers[i+1].events
			for j := 0; j < len(want) && j < len(got); j++ {
				if want[j] != got[j] {
					t.Fatalf("%s: trace diverges at cycle %d:\n  %s: %+v\n  %s: %+v",
						name, want[j].Cycle, pathName(base), want[j], pathName(m), got[j])
				}
			}
			if len(got) != len(want) {
				t.Fatalf("%s: trace length differs after cycle %d: %s %d events, %s %d",
					name, done, pathName(base), len(want), pathName(m), len(got))
			}
			if a, b := base.Snapshot(), m.Snapshot(); !bytes.Equal(a, b) {
				t.Fatalf("%s: %s snapshot diverges from %s at cycle %d, first differing byte %d",
					name, pathName(m), pathName(base), base.Cycle(), firstDiffIndex(a, b))
			}
		}
		if base.Halted() {
			break
		}
	}
	for _, m := range machines[1:] {
		diffState(t, name, base, m)
	}
}

// diffState compares the full architectural state of two machines.
func diffState(t *testing.T, name string, ref, fast *Machine) {
	t.Helper()
	rn, fn := pathName(ref), pathName(fast)
	if ref.stats != fast.stats {
		t.Errorf("%s: stats differ:\n  %s: %+v\n  %s: %+v", name, rn, ref.stats, fn, fast.stats)
	}
	if ref.cycle != fast.cycle || ref.halted != fast.halted || ref.curTask != fast.curTask || ref.curPC != fast.curPC {
		t.Errorf("%s: control state differs: %s(cycle=%d halted=%v task=%d pc=%v) %s(cycle=%d halted=%v task=%d pc=%v)",
			name, rn, ref.cycle, ref.halted, ref.curTask, ref.curPC, fn, fast.cycle, fast.halted, fast.curTask, fast.curPC)
	}
	if ref.rm != fast.rm {
		t.Errorf("%s: RM contents differ", name)
	}
	if ref.stack != fast.stack || ref.stackPtr != fast.stackPtr {
		t.Errorf("%s: stack state differs", name)
	}
	if ref.tasks != fast.tasks {
		t.Errorf("%s: task state differs:\n  %s: %+v\n  %s: %+v", name, rn, ref.tasks, fn, fast.tasks)
	}
	if ref.count != fast.count || ref.q != fast.q || ref.rbase != fast.rbase ||
		ref.membase != fast.membase || ref.shiftCtl != fast.shiftCtl || ref.cpreg != fast.cpreg {
		t.Errorf("%s: data-section registers differ", name)
	}
	if ref.ready != fast.ready || ref.bestNext != fast.bestNext {
		t.Errorf("%s: scheduler state differs", name)
	}
	// Spot-check memory through the functional port.
	for va := uint32(0x6000); va < 0x6100; va++ {
		if rv, fv := ref.mem.Peek(va), fast.mem.Peek(va); rv != fv {
			t.Errorf("%s: memory differs at %#x: %s %#x, %s %#x", name, va, rn, rv, fn, fv)
			break
		}
	}
}

// mustProgram assembles or fails.
func mustProgram(t testing.TB, b *masm.Builder) *masm.Program {
	t.Helper()
	p, err := b.Assemble()
	if err != nil {
		t.Fatal(err)
	}
	return p
}

// TestPredecodeDifferentialALU covers the data section: ALU ops, branch
// conditions, CALL/RETURN, COUNT loops, §5.9 constants, Q, RBASE, the
// shifter, and FF RM-write redirection.
func TestPredecodeDifferentialALU(t *testing.T) {
	bl := masm.NewBuilder()
	bl.EmitAt("start", masm.I{ALU: microcode.ALUB, Const: 0x00FF, HasConst: true, LC: microcode.LCLoadT})
	bl.Emit(masm.I{ALU: microcode.ALUB, Const: 0xFF07, HasConst: true, LC: microcode.LCLoadRM, R: 1})
	bl.Emit(masm.I{FF: microcode.FFPutQ, ALU: microcode.ALUAplusB, A: microcode.ASelT, B: microcode.BSelRM, R: 1})
	bl.Emit(masm.I{FF: microcode.FFCountBase + 9, Flow: masm.Goto("loop")})
	bl.EmitAt("loop", masm.I{ALU: microcode.ALUAplus1, A: microcode.ASelT, LC: microcode.LCLoadT,
		Flow: masm.Branch(microcode.CondCountNZ, "done", "loop")})
	bl.EmitAt("done", masm.I{ALU: microcode.ALUAminus1, A: microcode.ASelT, LC: microcode.LCLoadT,
		Flow: masm.Goto("post")})
	bl.EmitAt("post", masm.I{Flow: masm.Call("sub")})
	bl.Emit(masm.I{FF: microcode.FFRMDestBase + 5, ALU: microcode.ALUAplusB, A: microcode.ASelT,
		B: microcode.BSelQ, LC: microcode.LCLoadRM, R: 1}) // redirected to RM[5]
	bl.Emit(masm.I{FF: microcode.FFRotBase + 3})
	bl.Emit(masm.I{FF: microcode.FFShiftMaskZ, ALU: microcode.ALUA, A: microcode.ASelRM, R: 5,
		LC: microcode.LCLoadT})
	bl.Emit(masm.I{FF: microcode.FFHalt, Flow: masm.Self()})
	bl.EmitAt("sub", masm.I{ALU: microcode.ALUAxorB, A: microcode.ASelT, B: microcode.BSelQ,
		LC: microcode.LCLoadT, Flow: masm.Return()})
	p := mustProgram(t, bl)
	diffRun(t, "alu", 200, 200, allPaths, func(cfg Config) (*Machine, error) {
		m, err := New(cfg)
		if err != nil {
			return nil, err
		}
		m.Load(&p.Words)
		m.Start(p.MustEntry("start"))
		return m, nil
	})
}

// TestPredecodeDifferentialStackMemory covers the task-0 stack modifier,
// memory fetch/store with MD holds, and the same-instruction FF MEMBASE
// override that the hold phase must anticipate.
func TestPredecodeDifferentialStackMemory(t *testing.T) {
	bl := masm.NewBuilder()
	// Push two values, fetch through MEMBASE 2, add MD, store back.
	bl.EmitAt("start", masm.I{Block: true, R: 1, ALU: microcode.ALUB, Const: 0x0011, HasConst: true,
		LC: microcode.LCLoadRM}) // push 0x11
	bl.Emit(masm.I{Block: true, R: 1, ALU: microcode.ALUB, Const: 0x0022, HasConst: true,
		LC: microcode.LCLoadRM}) // push 0x22
	bl.Emit(masm.I{FF: microcode.FFMemBaseBase + 2, A: microcode.ASelFetch, R: 2}) // fetch base2+RM[2]
	bl.Emit(masm.I{ALU: microcode.ALUAplusB, A: microcode.ASelMD, B: microcode.BSelRM,
		Block: true, R: 0, LC: microcode.LCLoadRM}) // MD + top, replace top
	bl.Emit(masm.I{A: microcode.ASelStore, R: 2, B: microcode.BSelT})
	bl.Emit(masm.I{Block: true, R: 0xF, ALU: microcode.ALUA, A: microcode.ASelRM, LC: microcode.LCLoadT}) // pop
	bl.Emit(masm.I{FF: microcode.FFHalt, Flow: masm.Self()})
	p := mustProgram(t, bl)
	diffRun(t, "stack-memory", 400, 400, allPaths, func(cfg Config) (*Machine, error) {
		m, err := New(cfg)
		if err != nil {
			return nil, err
		}
		m.Load(&p.Words)
		m.Mem().SetBase(2, 0x6000)
		m.Mem().Poke(0x6010, 0x0300)
		m.SetRM(2, 0x10)
		m.Start(p.MustEntry("start"))
		return m, nil
	})
}

// TestPredecodeDifferentialDevices covers the scheduler with two live
// controllers: wakeups, preemption, Block, FFInput on the B bus, and the
// compact attached-device list against the 16-slot reference scan.
func TestPredecodeDifferentialDevices(t *testing.T) {
	bl := masm.NewBuilder()
	bl.EmitAt("emu", masm.I{ALU: microcode.ALUAplus1, A: microcode.ASelRM, R: 0,
		LC: microcode.LCLoadRM, Flow: masm.Goto("emu")})
	bl.EmitAt("svc", masm.I{FF: microcode.FFInput, ALU: microcode.ALUB, LC: microcode.LCLoadT})
	bl.Emit(masm.I{A: microcode.ASelStore, R: 1, B: microcode.BSelT,
		ALU: microcode.ALUAplus1, LC: microcode.LCLoadRM, Block: true, Flow: masm.Goto("svc")})
	p := mustProgram(t, bl)
	tr := diffRun(t, "devices", 20_000, 20_000, allPaths, func(cfg Config) (*Machine, error) {
		m, err := New(cfg)
		if err != nil {
			return nil, err
		}
		m.Load(&p.Words)
		m.Start(p.MustEntry("emu"))
		for _, task := range []int{9, 11} {
			if err := m.Attach(newProbeBench(task)); err != nil {
				return nil, err
			}
			m.SetIOAddress(task, uint16(task))
			m.SetTPC(task, p.MustEntry("svc"))
			m.SetRM(1, 0x6000)
		}
		return m, nil
	})
	if st := tr.TranslationStats(); st.FusedCycles == 0 {
		t.Errorf("traced device scenario fused no cycles: %+v", st)
	}
}

// TestPredecodeDifferentialDispatch covers DISPATCH8/DISPATCH256 and long
// transfers, whose FF bytes double as address bits.
func TestPredecodeDifferentialDispatch(t *testing.T) {
	bl := masm.NewBuilder()
	targets := make([]string, 8)
	for i := range targets {
		targets[i] = "t0"
	}
	targets[3] = "t3"
	bl.EmitAt("start", masm.I{ALU: microcode.ALUB, Const: 3, HasConst: true, LC: microcode.LCLoadT})
	bl.Emit(masm.I{ALU: microcode.ALUB, B: microcode.BSelT, Flow: masm.Dispatch8(targets...)})
	bl.EmitAt("t0", masm.I{FF: microcode.FFHalt})
	bl.EmitAt("t3", masm.I{ALU: microcode.ALUAplus1, A: microcode.ASelT, LC: microcode.LCLoadT,
		Flow: masm.Goto("t0")})
	p := mustProgram(t, bl)
	diffRun(t, "dispatch", 100, 100, allPaths, func(cfg Config) (*Machine, error) {
		m, err := New(cfg)
		if err != nil {
			return nil, err
		}
		m.Load(&p.Words)
		m.Start(p.MustEntry("start"))
		return m, nil
	})
}

// TestPredecodeDifferentialAblations proves the two decode paths agree
// under the paper's design ablations too (they are orthogonal axes).
func TestPredecodeDifferentialAblations(t *testing.T) {
	bl := masm.NewBuilder()
	bl.EmitAt("start", masm.I{FF: microcode.FFCountBase + 7, Flow: masm.Goto("loop")})
	bl.EmitAt("loop", masm.I{ALU: microcode.ALUAplus1, A: microcode.ASelT, LC: microcode.LCLoadT,
		Flow: masm.Branch(microcode.CondCountNZ, "done", "loop")})
	bl.EmitAt("done", masm.I{FF: microcode.FFHalt, Flow: masm.Self()})
	p := mustProgram(t, bl)
	for _, opt := range []Options{
		{DelayedBranch: true},
		{FixedWaitMemory: true},
	} {
		opt := opt
		diffRun(t, "ablation", 200, 200, decodePaths, func(cfg Config) (*Machine, error) {
			cfg.Options = opt
			m, err := New(cfg)
			if err != nil {
				return nil, err
			}
			m.Load(&p.Words)
			m.Start(p.MustEntry("start"))
			return m, nil
		})
	}
}

// TestSetIMInvalidation: a microstore write must take effect on the very
// next fetch of that address, on every path identically.
func TestSetIMInvalidation(t *testing.T) {
	bl := masm.NewBuilder()
	bl.EmitAt("start", masm.I{ALU: microcode.ALUAplus1, A: microcode.ASelT,
		LC: microcode.LCLoadT, Flow: masm.Goto("start")})
	p := mustProgram(t, bl)
	build := func(cfg Config) (*Machine, error) {
		m, err := New(cfg)
		if err != nil {
			return nil, err
		}
		m.Load(&p.Words)
		m.Start(p.MustEntry("start"))
		return m, nil
	}
	machines := make([]*Machine, len(allPaths))
	for i, cfg := range allPaths {
		m, err := build(cfg)
		if err != nil {
			t.Fatal(err)
		}
		m.Run(50)
		// Rewrite the loop instruction in place: same increment, but halt.
		a := p.MustEntry("start")
		w := m.IM(a)
		w.FF = microcode.FFHalt
		m.SetIM(a, w)
		machines[i] = m
	}
	diffMachines(t, "setim", 50, 50, machines...)
	for _, m := range machines {
		if !m.Halted() {
			t.Fatalf("microstore write did not take effect on the %s path", pathName(m))
		}
		// The write must have reached both the stored word and its decoded
		// form; a stale decoded form would have kept the machine looping.
		if got := m.IM(p.MustEntry("start")).FF; got != microcode.FFHalt {
			t.Fatalf("%s: IM readback = %#x, want FFHalt", pathName(m), got)
		}
	}
}
