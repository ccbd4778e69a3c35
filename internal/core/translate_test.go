package core

import (
	"bytes"
	"testing"

	"dorado/internal/device"
	"dorado/internal/ifu"
	"dorado/internal/masm"
	"dorado/internal/memory"
	"dorado/internal/microcode"
	"dorado/internal/state"
)

// The translated-path scenarios: hot loops, so most cycles run inside
// superblocks. They go through the same three-path harness as the predecode
// scenarios (diffRun): the tracer streams must match event for event —
// fused cycles included — and the snapshots byte for byte at every chunk
// boundary. The chunk sizes are prime so the cycle budget repeatedly
// expires mid-superblock, covering the partial-block exit.

// translateTestCfg is the translated path of the scenarios.
var translateTestCfg = Translation{Enable: true}

// smallMem keeps per-chunk snapshots cheap (a snapshot embeds storage).
var smallMem = memory.Config{CacheWords: 256, CacheWays: 2, StorageWords: 1 << 16}

// diffTranslated diffs the scenario on all three paths and returns the
// translated machine, which must have fused cycles under its tracer —
// otherwise the comparison would never have left the generic loop.
func diffTranslated(t *testing.T, name string, total, chunk uint64, build func(cfg Config) (*Machine, error)) *Machine {
	t.Helper()
	tr := diffRun(t, name, total, chunk, allPaths, build)
	if st := tr.TranslationStats(); st.FusedCycles == 0 {
		t.Fatalf("%s: traced translated run fused no cycles: %+v", name, st)
	}
	return tr
}

func firstDiffIndex(a, b []byte) int {
	n := len(a)
	if len(b) < n {
		n = len(b)
	}
	for i := 0; i < n; i++ {
		if a[i] != b[i] {
			return i
		}
	}
	return n
}

func TestTranslationConfigValidation(t *testing.T) {
	if _, err := New(Config{Translation: Translation{Enable: true}, Reference: true}); err == nil {
		t.Error("New accepted Translation with Reference")
	}
	if _, err := New(Config{Translation: Translation{Enable: true}, Options: Options{NoBypass: true}}); err == nil {
		t.Error("New accepted Translation with an Options ablation")
	}
	m, err := New(Config{Translation: Translation{Enable: true}})
	if err != nil {
		t.Fatalf("New rejected plain Translation: %v", err)
	}
	if m.trans == nil {
		t.Fatal("Translation enabled but no translator allocated")
	}
	if m2, err := New(Config{}); err != nil || m2.trans != nil {
		t.Errorf("plain machine got a translator (err %v)", err)
	}
}

// TestTranslatedDifferentialALU: a hot data-section loop — §5.9 constants,
// COUNT branch, CALL/RETURN, Q, FF RM-redirect — the fuseALU template's
// home turf plus fused terminators (branch, return).
func TestTranslatedDifferentialALU(t *testing.T) {
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
	p := mustProgram(t, bl)
	tr := diffTranslated(t, "alu", 600, 7, func(cfg Config) (*Machine, error) {
		cfg.Memory = smallMem
		m, err := New(cfg)
		if err != nil {
			return nil, err
		}
		m.Load(&p.Words)
		m.SetRM(1, 0x1234)
		m.Start(p.MustEntry("start"))
		return m, nil
	})
	st := tr.TranslationStats()
	if st.BlocksBuilt == 0 || st.Entries == 0 {
		t.Errorf("hot ALU loop built no superblocks: %+v", st)
	}
}

// TestTranslatedDifferentialStackMemory: the task-0 stack modifier (blocks
// become task0Only) interleaved with memory fetches whose MD use holds
// mid-block — the fallback contract for holds inside fused runs.
func TestTranslatedDifferentialStackMemory(t *testing.T) {
	bl := masm.NewBuilder()
	bl.EmitAt("start", masm.I{FF: microcode.FFCountBase + 40, Flow: masm.Goto("loop")})
	bl.EmitAt("loop", masm.I{Block: true, R: 1, ALU: microcode.ALUB, Const: 0x0011, HasConst: true,
		LC: microcode.LCLoadRM}) // push
	bl.Emit(masm.I{FF: microcode.FFMemBaseBase + 2, A: microcode.ASelFetch, R: 2}) // fetch base2+RM[2]
	bl.Emit(masm.I{ALU: microcode.ALUAplusB, A: microcode.ASelMD, B: microcode.BSelRM,
		Block: true, R: 0, LC: microcode.LCLoadRM}) // MD + top (holds until MD ready)
	bl.Emit(masm.I{A: microcode.ASelStore, R: 2, B: microcode.BSelT})
	bl.Emit(masm.I{Block: true, R: 0xF, ALU: microcode.ALUA, A: microcode.ASelRM, LC: microcode.LCLoadT,
		Flow: masm.Branch(microcode.CondCountNZ, "done", "loop")}) // pop
	bl.EmitAt("done", masm.I{FF: microcode.FFHalt, Flow: masm.Self()})
	p := mustProgram(t, bl)
	tr := diffTranslated(t, "stack-memory", 1200, 7, func(cfg Config) (*Machine, error) {
		cfg.Memory = smallMem
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
	st := tr.TranslationStats()
	if st.BlocksBuilt == 0 {
		t.Errorf("hot stack loop built no superblocks: %+v", st)
	}
	if s := tr.Stats(); s.Holds == 0 {
		t.Errorf("scenario produced no holds; mid-block hold fallback not exercised")
	}
}

// TestTranslatedDifferentialDevices: two controllers thrash task switches —
// wakeups preempt task 0 mid-block, service blocks Block-release, and the
// generic runBlock scheduler epilogue runs every fused cycle.
func TestTranslatedDifferentialDevices(t *testing.T) {
	bl := masm.NewBuilder()
	bl.EmitAt("emu", masm.I{ALU: microcode.ALUAplus1, A: microcode.ASelRM, R: 0, LC: microcode.LCLoadRM})
	bl.Emit(masm.I{ALU: microcode.ALUAplusB, A: microcode.ASelRM, R: 0, B: microcode.BSelT, LC: microcode.LCLoadT})
	bl.Emit(masm.I{ALU: microcode.ALUAxorB, A: microcode.ASelT, B: microcode.BSelRM, R: 0,
		LC: microcode.LCLoadT, Flow: masm.Goto("emu")})
	bl.EmitAt("svc", masm.I{FF: microcode.FFInput, ALU: microcode.ALUB, LC: microcode.LCLoadT})
	bl.Emit(masm.I{A: microcode.ASelStore, R: 1, B: microcode.BSelT,
		ALU: microcode.ALUAplus1, LC: microcode.LCLoadRM, Block: true, Flow: masm.Goto("svc")})
	p := mustProgram(t, bl)
	tr := diffTranslated(t, "devices", 20_000, 101, func(cfg Config) (*Machine, error) {
		cfg.Memory = smallMem
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
	st := tr.TranslationStats()
	if st.BlocksBuilt == 0 || st.Entries == 0 {
		t.Errorf("device scenario built no superblocks: %+v", st)
	}
	if s := tr.Stats(); s.TaskSwitches == 0 {
		t.Errorf("device scenario produced no task switches; preemption fallback not exercised")
	}
}

// TestTranslatedDifferentialIdlers: time-driven controllers whose
// IdleUntil promises a horizon (WordSource, Pulse) let the machine skip
// the per-cycle device scan until then; the three paths must stay
// byte-identical through wakeups, preemptions, and service, and the
// horizon must actually engage (fewer scans than cycles).
func TestTranslatedDifferentialIdlers(t *testing.T) {
	bl := masm.NewBuilder()
	bl.EmitAt("emu", masm.I{ALU: microcode.ALUAplus1, A: microcode.ASelRM, R: 0, LC: microcode.LCLoadRM})
	bl.Emit(masm.I{ALU: microcode.ALUAplusB, A: microcode.ASelRM, R: 0, B: microcode.BSelT, LC: microcode.LCLoadT})
	bl.Emit(masm.I{ALU: microcode.ALUAxorB, A: microcode.ASelT, B: microcode.BSelRM, R: 0,
		LC: microcode.LCLoadT, Flow: masm.Goto("emu")})
	bl.EmitAt("svc", masm.I{FF: microcode.FFInput, ALU: microcode.ALUB, LC: microcode.LCLoadT})
	bl.Emit(masm.I{A: microcode.ASelStore, R: 1, B: microcode.BSelT,
		ALU: microcode.ALUAplus1, LC: microcode.LCLoadRM, Block: true, Flow: masm.Goto("svc")})
	bl.EmitAt("psvc", masm.I{Block: true, Flow: masm.Goto("psvc")})
	p := mustProgram(t, bl)
	tr := diffTranslated(t, "idlers", 20_000, 101, func(cfg Config) (*Machine, error) {
		cfg.Memory = smallMem
		m, err := New(cfg)
		if err != nil {
			return nil, err
		}
		m.Load(&p.Words)
		m.Start(p.MustEntry("emu"))
		if err := m.Attach(device.NewWordSource(11, 23, 2)); err != nil {
			return nil, err
		}
		m.SetIOAddress(11, 11)
		m.SetTPC(11, p.MustEntry("svc"))
		m.SetRM(1, 0x6000)
		if err := m.Attach(device.NewPulse(9, 97)); err != nil {
			return nil, err
		}
		m.SetTPC(9, p.MustEntry("psvc"))
		return m, nil
	})
	st := tr.TranslationStats()
	if st.BlocksBuilt == 0 || st.Entries == 0 {
		t.Errorf("idler scenario built no superblocks: %+v", st)
	}
	if scans, _ := HorizonStats(tr); scans >= tr.Cycle() {
		t.Errorf("idler devices attached but every one of %d cycles scanned them", tr.Cycle())
	}
	if s := tr.Stats(); s.TaskSwitches == 0 {
		t.Errorf("idler scenario produced no task switches; wakeup fallback not exercised")
	}
}

// TestTranslateDevUnsafeBlock: an FF that pokes a device (Output) inside a
// fused block ends the device quiet window, so a wakeup the write raises
// is latched on the next cycle on every path, as the per-cycle scan would.
func TestTranslateDevUnsafeBlock(t *testing.T) {
	bl := masm.NewBuilder()
	bl.EmitAt("start", masm.I{ALU: microcode.ALUAplus1, A: microcode.ASelT, LC: microcode.LCLoadT})
	bl.Emit(masm.I{FF: microcode.FFOutput, B: microcode.BSelT, Flow: masm.Goto("start")})
	bl.EmitAt("svc", masm.I{Block: true, Flow: masm.Goto("svc")})
	p := mustProgram(t, bl)
	m, err := New(Config{Memory: smallMem, Translation: translateTestCfg})
	if err != nil {
		t.Fatal(err)
	}
	m.Load(&p.Words)
	b := m.translate(p.MustEntry("start"))
	if b == nil {
		t.Fatal("loop did not translate")
	}
	tr := diffTranslated(t, "output-wakes", 3_000, 101, func(cfg Config) (*Machine, error) {
		cfg.Memory = smallMem
		m, err := New(cfg)
		if err != nil {
			return nil, err
		}
		m.Load(&p.Words)
		m.Start(p.MustEntry("start"))
		if err := m.Attach(&outputWaker{Nop: device.Nop{TaskNum: 9}}); err != nil {
			return nil, err
		}
		m.SetIOAddress(0, 9)
		m.SetTPC(9, p.MustEntry("svc"))
		return m, nil
	})
	if s := tr.Stats(); s.TaskCycles[9] == 0 {
		t.Error("the written device's task never ran: its wakeup was not latched")
	}
}

// outputWaker raises its wakeup when the processor writes it and drops it
// when its task is served; otherwise it is quiet forever (IdleUntil).
type outputWaker struct {
	device.Nop
	wake bool
}

func (d *outputWaker) Wakeup() bool          { return d.wake }
func (d *outputWaker) Output(uint16, uint64) { d.wake = true }
func (d *outputWaker) NotifyNext(uint64)     { d.wake = false }

func (d *outputWaker) IdleUntil(now uint64) uint64 {
	if d.wake {
		return now
	}
	return ^uint64(0)
}

func (d *outputWaker) State(c *state.Codec) { c.Bool(&d.wake) }

// TestLoadIdempotent: reloading an identical microstore image neither
// re-decodes nor flushes the superblock caches, and an image that differs
// in one word executes the new word at its next fetch on every path with
// exactly one flush.
func TestLoadIdempotent(t *testing.T) {
	bl := masm.NewBuilder()
	bl.EmitAt("start", masm.I{ALU: microcode.ALUAplus1, A: microcode.ASelT, LC: microcode.LCLoadT, Flow: masm.Goto("start")})
	p := mustProgram(t, bl)
	a := p.MustEntry("start")
	machines := make([]*Machine, len(allPaths))
	for i, cfg := range allPaths {
		cfg.Memory = smallMem
		m, err := New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		m.Load(&p.Words)
		m.Start(a)
		m.RunCycles(100)
		machines[i] = m
	}
	m := machines[2]
	st := m.TranslationStats()
	if st.BlocksBuilt == 0 {
		t.Fatalf("loop not translated: %+v", st)
	}
	m.Load(&p.Words) // identical image: must be a no-op
	if got := m.TranslationStats().Invalidations; got != st.Invalidations {
		t.Errorf("identical Load bumped Invalidations %d → %d", st.Invalidations, got)
	}
	m.SetIM(a, m.IM(a)) // identical word: must be a no-op
	if got := m.TranslationStats().Invalidations; got != st.Invalidations {
		t.Errorf("identical SetIM bumped Invalidations %d → %d", st.Invalidations, got)
	}

	// The same loop word, now also halting.
	halting := p.Words
	halting[a].FF = microcode.FFHalt
	for _, m := range machines {
		m.Load(&halting)
	}
	if got := m.TranslationStats().Invalidations; got != st.Invalidations+1 {
		t.Errorf("Load of a one-word change bumped Invalidations %d → %d, want %d", st.Invalidations, got, st.Invalidations+1)
	}
	m.Load(&halting) // that image again: must be a no-op
	if got := m.TranslationStats().Invalidations; got != st.Invalidations+1 {
		t.Errorf("reloading the changed image bumped Invalidations to %d, want %d", got, st.Invalidations+1)
	}
	diffMachines(t, "load", 1, 1, machines...)
	for _, m := range machines {
		if !m.Halted() || m.HaltPC() != a || m.T(0) != 101 {
			t.Errorf("%s: after one cycle halted=%v at %v with T=%d, want the changed word executed once at %v: halted, T=101",
				pathName(m), m.Halted(), m.HaltPC(), m.T(0), a)
		}
	}
}

// TestTranslatedDifferentialIFU: macroinstruction handlers ending in
// IFUJUMP — the dynamically-dispatched terminator — get hot and fuse; the
// IFU dispatch hold at an empty buffer exercises the held-terminator exit.
func TestTranslatedDifferentialIFU(t *testing.T) {
	bl := masm.NewBuilder()
	bl.EmitAt("start", masm.I{Flow: masm.IFUJump()})
	bl.EmitAt("op1", masm.I{ALU: microcode.ALUAplus1, A: microcode.ASelT, LC: microcode.LCLoadT})
	bl.Emit(masm.I{ALU: microcode.ALUAplusB, A: microcode.ASelRM, R: 2, B: microcode.BSelT, LC: microcode.LCLoadRM})
	bl.Emit(masm.I{ALU: microcode.ALUAxorB, A: microcode.ASelT, B: microcode.BSelRM, R: 2, Flow: masm.IFUJump()})
	bl.EmitAt("haltop", masm.I{FF: microcode.FFHalt, Flow: masm.Self()})
	p := mustProgram(t, bl)
	tr := diffTranslated(t, "ifu", 4000, 13, func(cfg Config) (*Machine, error) {
		cfg.Memory = smallMem
		m, err := New(cfg)
		if err != nil {
			return nil, err
		}
		m.Load(&p.Words)
		m.Start(p.MustEntry("start"))
		code := make([]byte, 0, 402)
		for i := 0; i < 400; i++ {
			code = append(code, 1)
		}
		code = append(code, 2, 0)
		for i := 0; i+1 < len(code); i += 2 {
			m.Mem().Poke(0x4000+uint32(i/2), uint16(code[i])<<8|uint16(code[i+1]))
		}
		u := m.IFU()
		u.SetCodeBase(0x4000)
		if err := u.SetEntry(1, ifu.Entry{Handler: p.MustEntry("op1"), Name: "OP1"}); err != nil {
			return nil, err
		}
		if err := u.SetEntry(2, ifu.Entry{Handler: p.MustEntry("haltop"), Name: "HALT"}); err != nil {
			return nil, err
		}
		u.Reset(0, 0)
		return m, nil
	})
	st := tr.TranslationStats()
	if st.BlocksBuilt == 0 || st.Entries == 0 {
		t.Errorf("IFU handler loop built no superblocks: %+v", st)
	}
	if !tr.Halted() || tr.T(0) != 400 {
		t.Errorf("macro program end state: halted=%v T=%d, want halted, T=400", tr.Halted(), tr.T(0))
	}
}

// TestTranslatedSetIMInvalidation: a microstore write flushes the block
// cache, so a rewritten instruction takes effect even at a hot address
// whose old body was fused into a superblock.
func TestTranslatedSetIMInvalidation(t *testing.T) {
	bl := masm.NewBuilder()
	bl.EmitAt("start", masm.I{ALU: microcode.ALUAplus1, A: microcode.ASelT, LC: microcode.LCLoadT})
	bl.Emit(masm.I{ALU: microcode.ALUAminus1, A: microcode.ASelT, LC: microcode.LCLoadT, Flow: masm.Goto("start")})
	p := mustProgram(t, bl)
	m, err := New(Config{Memory: smallMem, Translation: translateTestCfg})
	if err != nil {
		t.Fatal(err)
	}
	m.Load(&p.Words)
	m.Start(p.MustEntry("start"))
	m.RunCycles(100)
	if st := m.TranslationStats(); st.BlocksBuilt == 0 {
		t.Fatalf("loop not translated after 100 cycles: %+v", st)
	}
	inv := m.TranslationStats().Invalidations
	a := p.MustEntry("start")
	w := m.IM(a)
	w.FF = microcode.FFHalt
	m.SetIM(a, w)
	if got := m.TranslationStats().Invalidations; got != inv+1 {
		t.Errorf("SetIM bumped Invalidations %d → %d, want %d", inv, got, inv+1)
	}
	m.RunCycles(10)
	if !m.Halted() {
		t.Fatal("rewritten microword did not take effect on the translated path")
	}
}

// TestTranslatedRestore: Restore flushes the block cache — a snapshot taken
// from a hot translated machine rehydrates onto the generic cycle loop and
// re-translates, staying in lockstep with a predecoded machine restored
// from the same bytes.
func TestTranslatedRestore(t *testing.T) {
	bl := masm.NewBuilder()
	bl.EmitAt("start", masm.I{ALU: microcode.ALUAplus1, A: microcode.ASelT, LC: microcode.LCLoadT})
	bl.Emit(masm.I{ALU: microcode.ALUAplusB, A: microcode.ASelT, B: microcode.BSelRM, R: 3, LC: microcode.LCLoadRM})
	bl.Emit(masm.I{ALU: microcode.ALUAxorB, A: microcode.ASelT, B: microcode.BSelQ, Flow: masm.Goto("start")})
	p := mustProgram(t, bl)
	build := func(cfg Config) (*Machine, error) {
		cfg.Memory = smallMem
		m, err := New(cfg)
		if err != nil {
			return nil, err
		}
		m.Load(&p.Words)
		m.SetRM(3, 7)
		m.Start(p.MustEntry("start"))
		return m, nil
	}
	hot, err := build(Config{Translation: translateTestCfg})
	if err != nil {
		t.Fatal(err)
	}
	hot.RunCycles(500)
	if st := hot.TranslationStats(); st.BlocksBuilt == 0 {
		t.Fatalf("machine not hot before snapshot: %+v", st)
	}
	snap := hot.Snapshot()

	pre, err := build(Config{})
	if err != nil {
		t.Fatal(err)
	}
	tr, err := build(Config{Translation: translateTestCfg})
	if err != nil {
		t.Fatal(err)
	}
	tr.RunCycles(123) // dirty the profile/caches so Restore must flush them
	if err := pre.Restore(snap); err != nil {
		t.Fatal(err)
	}
	if err := tr.Restore(snap); err != nil {
		t.Fatal(err)
	}
	if st := tr.TranslationStats(); st.Invalidations == 0 {
		t.Error("Restore did not invalidate the translation caches")
	}
	for i := 0; i < 40; i++ {
		pre.RunCycles(11)
		tr.RunCycles(11)
		ps, ts := pre.Snapshot(), tr.Snapshot()
		if !bytes.Equal(ps, ts) {
			t.Fatalf("restored paths diverge at cycle %d, first differing byte %d",
				pre.Cycle(), firstDiffIndex(ps, ts))
		}
	}
	if st := tr.TranslationStats(); st.BlocksBuilt == 0 {
		t.Error("restored machine never re-translated its hot loop")
	}
}

// TestTranslateBlockShapes checks the fusion rules directly: closed loops
// unroll in whole iterations up to maxBlock, stack-modifier words force
// task0Only, and a run into an interior revisit (not the start) stops.
func TestTranslateBlockShapes(t *testing.T) {
	bl := masm.NewBuilder()
	bl.EmitAt("start", masm.I{ALU: microcode.ALUAplus1, A: microcode.ASelT, LC: microcode.LCLoadT})
	bl.Emit(masm.I{Block: true, R: 1, ALU: microcode.ALUB, Const: 1, HasConst: true, LC: microcode.LCLoadRM})
	bl.Emit(masm.I{Block: true, R: 0xF, ALU: microcode.ALUA, A: microcode.ASelRM, Flow: masm.Goto("start")})
	bl.EmitAt("self", masm.I{ALU: microcode.ALUAplus1, A: microcode.ASelT, Flow: masm.Goto("self")})
	bl.EmitAt("head", masm.I{ALU: microcode.ALUAplus1, A: microcode.ASelT, Flow: masm.Goto("inner")})
	bl.EmitAt("inner", masm.I{ALU: microcode.ALUAminus1, A: microcode.ASelT, Flow: masm.Goto("inner")})
	p := mustProgram(t, bl)
	m, err := New(Config{Memory: smallMem, Translation: translateTestCfg})
	if err != nil {
		t.Fatal(err)
	}
	m.Load(&p.Words)

	b := m.translate(p.MustEntry("start"))
	if b == nil {
		t.Fatal("three-word loop did not translate")
	}
	if len(b.code)%3 != 0 || len(b.code) < 3 || len(b.code) > maxBlock {
		t.Errorf("loop of 3 unrolled to %d instructions, want a whole multiple of 3 within maxBlock %d",
			len(b.code), maxBlock)
	}
	if !b.task0Only {
		t.Error("block with stack-modifier words not marked task0Only")
	}
	if b := m.translate(p.MustEntry("self")); b == nil || len(b.code) != maxBlock {
		t.Errorf("single-word self-loop should unroll to maxBlock %d, got %+v", maxBlock, b)
	}
	// head→inner: inner is a closed loop on itself, but from head's block the
	// revisit is interior, so the run stops there (the inner loop gets its
	// own block when it becomes hot).
	if b := m.translate(p.MustEntry("head")); b != nil && len(b.code) != 2 {
		t.Errorf("run into an interior loop fused %d instructions, want 2", len(b.code))
	}
}
