// Package fuzzdiff is the snapshot-anchored differential fuzzer: it
// generates random-but-valid microprograms, runs them on both a fast
// interpreter path (predecoded, or superblock-translated with
// Config.Translated) and the Config.Reference interpreter in lockstep,
// and uses machine snapshots (internal/state) two ways:
//
//   - as the equality oracle: two machines in identical architectural
//     states produce byte-identical snapshots (Config.Reference is not part
//     of the snapshot), so one bytes.Equal per checkpoint replaces a
//     field-by-field comparison of the entire machine;
//   - as bisection anchors: a checkpoint is taken every K cycles, and when
//     a divergence appears the harness restores both paths from the last
//     agreeing checkpoint and reruns them for 1, 2, 3, ... cycles until the
//     exact cycle — and thus the exact microinstruction — where the paths
//     first disagree.
//
// The result is a Divergence carrying a ready-to-paste regression test, so
// an overnight fuzz finding becomes a one-line repro in the test suite.
package fuzzdiff

import (
	"bytes"
	"fmt"
	"math/rand"

	"dorado/internal/core"
	"dorado/internal/device"
	"dorado/internal/masm"
	"dorado/internal/memory"
	"dorado/internal/microcode"
)

// Config parameterizes one fuzz run. Every field is deterministic: the same
// Config always generates the same program and the same cycle-for-cycle
// execution, which is what makes a printed repro reproducible.
type Config struct {
	// Seed selects the generated microprogram and initial machine state.
	Seed int64
	// Instructions is the number of random task-0 instructions (default 24).
	Instructions int
	// Cycles is the total simulated length of the run (default 20000).
	Cycles uint64
	// CheckpointEvery is K, the snapshot interval in cycles (default 512).
	// Smaller K means cheaper bisection and more expensive scanning.
	CheckpointEvery uint64
	// Translated runs the fast side with superblock translation enabled
	// (blocks are built at an address's first visit): the differential
	// then checks translated-vs-reference instead of
	// predecoded-vs-reference, hunting translator bugs with the same
	// oracle.
	Translated bool
	// FastIO attaches the fast-I/O pair — a Display consuming 16-word
	// blocks from storage and a Scanner producing them — to both machines,
	// widening the differential to the §7 device-driven configurations:
	// direct storage transfers, cache invalidations, and the extra wakeup
	// traffic they cause. Both sides get identical devices, so the oracle
	// is unchanged.
	FastIO bool
	// Display attaches the display alone, at full storage bandwidth (a
	// block every 8 cycles) and without the Scanner, whose missing event
	// horizon (device.Idler) would make the processor scan devices every
	// cycle: the shape of perfbench's devices sessions, where the device
	// event horizon and the held-run shortcut carry the work. FastIO
	// already includes a display, so with FastIO set it adds nothing.
	Display bool

	// Tamper, when set, mutates the fast-path machine before the given
	// cycle executes — a fault injector proving a harness detects and
	// localizes divergence. The fuzz-farm self-test seeds a bug through it
	// to verify the farm finds, minimizes, and reports the divergence end
	// to end; it costs single-stepped (unbatched) execution, so leave it
	// nil outside fault-injection tests.
	Tamper func(cycle uint64, fast *core.Machine)
}

// Normalized returns the Config with the documented defaults filled in —
// what Run actually executes. Campaign tooling (internal/fuzzfarm) uses it
// so minimized sizes and report echoes show real values, not zeros.
func (c Config) Normalized() Config { return c.withDefaults() }

func (c Config) withDefaults() Config {
	if c.Instructions <= 0 {
		c.Instructions = 24
	}
	if c.Cycles == 0 {
		c.Cycles = 20000
	}
	if c.CheckpointEvery == 0 {
		c.CheckpointEvery = 512
	}
	return c
}

// Divergence describes the first cycle at which the two interpreter paths
// disagreed, pinned to the single microinstruction that exposed it.
type Divergence struct {
	Seed  int64
	Cycle uint64         // cycle whose execution diverged
	Task  int            // task running that cycle (on the fast path)
	PC    microcode.Addr // microstore address executed
	Word  microcode.Word // the offending microinstruction
	// Detail locates the first differing byte between the two post-step
	// snapshots (section-relative context for debugging).
	Detail string
	// Repro is a ready-to-paste Go test reproducing the divergence.
	Repro string
}

// String summarizes the divergence point in one line.
func (d *Divergence) String() string {
	return fmt.Sprintf("seed %d: interpreters diverge at cycle %d (task %d, pc %v, word %+v): %s",
		d.Seed, d.Cycle, d.Task, d.PC, d.Word, d.Detail)
}

// Result is the campaign-friendly outcome of one fuzz iteration: the seed,
// how much work it represents, and the bisected divergence if the paths
// disagreed. internal/fuzzfarm aggregates Results across sharded seed
// ranges into its campaign report.
type Result struct {
	// Seed is Config.Seed, echoed so aggregators need not carry the Config.
	Seed int64
	// Cycles is the number of cycles actually simulated — Config.Cycles
	// unless the machine halted early or a divergence cut the scan short.
	Cycles uint64
	// Halted reports that the program executed a Halt before the cycle
	// budget ran out (on both paths, identically).
	Halted bool
	// Divergence is the bisected first disagreement, nil when the paths
	// agreed for the whole run.
	Divergence *Divergence
}

// Run executes one deterministic fuzz iteration and returns the bisected
// divergence, or nil if the predecoded and reference interpreters agreed
// for the whole run.
func Run(cfg Config) (*Divergence, error) {
	res, err := RunResult(cfg)
	return res.Divergence, err
}

// RunResult is Run with the full per-iteration accounting (cycles
// simulated, early halt) a fuzz campaign aggregates.
func RunResult(cfg Config) (Result, error) {
	cfg = cfg.withDefaults()
	res := Result{Seed: cfg.Seed}
	prog, err := generate(cfg.Seed, cfg.Instructions)
	if err != nil {
		return res, err
	}
	fast, err := buildMachine(prog, cfg, false)
	if err != nil {
		return res, err
	}
	ref, err := buildMachine(prog, cfg, true)
	if err != nil {
		return res, err
	}

	lastGood := fast.Snapshot()
	if !bytes.Equal(lastGood, ref.Snapshot()) {
		return res, fmt.Errorf("fuzzdiff: machines differ before cycle 0 (builder bug)")
	}

	for fast.Cycle() < cfg.Cycles {
		k := cfg.CheckpointEvery
		if left := cfg.Cycles - fast.Cycle(); left < k {
			k = left
		}
		stepBoth(cfg, fast, ref, k)
		res.Cycles = fast.Cycle()
		fsnap := fast.Snapshot()
		if !bytes.Equal(fsnap, ref.Snapshot()) {
			res.Divergence, err = bisect(cfg, prog, lastGood)
			return res, err
		}
		lastGood = fsnap
		if fast.Halted() {
			res.Halted = true
			break // both halted identically (snapshots matched)
		}
	}
	return res, nil
}

// stepBoth advances both machines k cycles in lockstep, applying the test
// fault injector on the fast path if one is installed.
func stepBoth(cfg Config, fast, ref *core.Machine, k uint64) {
	if cfg.Tamper == nil {
		fast.RunCycles(k)
		ref.RunCycles(k)
		return
	}
	for i := uint64(0); i < k && !fast.Halted(); i++ {
		cfg.Tamper(fast.Cycle(), fast)
		stepFast(cfg, fast)
		ref.Step()
	}
}

// stepFast advances the fast side one cycle. In Translated mode it uses
// RunCycles(1) so the cycle executes through the translated dispatch loop
// (profile, enter, fuse) instead of the plain interpreter Step — otherwise
// a tampered run would silently fall back to the very path it is not
// testing.
func stepFast(cfg Config, fast *core.Machine) {
	if cfg.Translated {
		fast.RunCycles(1)
	} else {
		fast.Step()
	}
}

// bisect restores both interpreter paths from the last agreeing checkpoint
// and reruns them for n = 1, 2, 3, ... cycles until their post-states
// first differ. Each rerun is one batched run, as the scan's were, so a
// divergence that only a multi-cycle run can show (the device event
// horizon, or held cycles retired in bulk) is localized too; stepping one
// cycle at a time would hide it.
func bisect(cfg Config, prog *masm.Program, lastGood []byte) (*Divergence, error) {
	fast, err := buildMachine(prog, cfg, false)
	if err != nil {
		return nil, err
	}
	ref, err := buildMachine(prog, cfg, true)
	if err != nil {
		return nil, err
	}
	restore := func() error {
		if err := fast.Restore(lastGood); err != nil {
			return fmt.Errorf("fuzzdiff: restore checkpoint onto fast path: %w", err)
		}
		if err := ref.Restore(lastGood); err != nil {
			return fmt.Errorf("fuzzdiff: restore checkpoint onto reference path: %w", err)
		}
		return nil
	}
	if err := restore(); err != nil {
		return nil, err
	}
	// The cycle the next rerun adds, and the instruction it runs.
	cycle := fast.Cycle()
	task, pc := fast.CurTask(), fast.CurPC()
	for n := uint64(1); n <= cfg.CheckpointEvery; n++ {
		if err := restore(); err != nil {
			return nil, err
		}
		stepBoth(cfg, fast, ref, n)
		fsnap, rsnap := fast.Snapshot(), ref.Snapshot()
		if !bytes.Equal(fsnap, rsnap) {
			d := &Divergence{
				Seed:   cfg.Seed,
				Cycle:  cycle,
				Task:   task,
				PC:     pc,
				Word:   fast.IM(pc),
				Detail: firstDiff(fsnap, rsnap),
			}
			d.Repro = repro(cfg, d)
			return d, nil
		}
		if fast.Halted() {
			break
		}
		cycle, task, pc = fast.Cycle(), fast.CurTask(), fast.CurPC()
	}
	return nil, fmt.Errorf("fuzzdiff: checkpoint disagreed but rerunning from it did not diverge within %d cycles", cfg.CheckpointEvery)
}

// firstDiff describes the first byte at which two snapshots differ.
func firstDiff(a, b []byte) string {
	n := len(a)
	if len(b) < n {
		n = len(b)
	}
	for i := 0; i < n; i++ {
		if a[i] != b[i] {
			return fmt.Sprintf("snapshots differ first at byte %d: fast %#02x, reference %#02x", i, a[i], b[i])
		}
	}
	return fmt.Sprintf("snapshot lengths differ: fast %d bytes, reference %d", len(a), len(b))
}

// repro renders a ready-to-paste regression test: minimal cycle budget (one
// checkpoint past the diverging cycle), the same seed and program size.
func repro(cfg Config, d *Divergence) string {
	fastPath := "predecoded"
	if cfg.Translated {
		fastPath = "translated"
	}
	if cfg.FastIO {
		fastPath += "+fastio"
	} else if cfg.Display {
		fastPath += "+display"
	}
	return fmt.Sprintf(`// Regression: %s and reference interpreters diverged.
//   seed=%d cycle=%d task=%d pc=%v
//   word=%+v (raw %#011x)
func TestFuzzDiffSeed%d(t *testing.T) {
	d, err := fuzzdiff.Run(fuzzdiff.Config{
		Seed:            %d,
		Instructions:    %d,
		Cycles:          %d,
		CheckpointEvery: %d,
		Translated:      %t,
		FastIO:          %t,
		Display:         %t,
	})
	if err != nil {
		t.Fatal(err)
	}
	if d != nil {
		t.Fatalf("interpreter divergence: %%v", d)
	}
}
`, fastPath, d.Seed, d.Cycle, d.Task, d.PC, d.Word, d.Word.Encode(),
		d.Seed, d.Seed, cfg.Instructions, d.Cycle+1, cfg.CheckpointEvery, cfg.Translated, cfg.FastIO, cfg.Display)
}

// fuzzMemConfig keeps storage small so per-checkpoint snapshots stay cheap
// (a snapshot embeds all of storage).
var fuzzMemConfig = memory.Config{
	CacheWords:   256,
	CacheWays:    2,
	StorageWords: 4096,
}

// buildMachine assembles one side of the differential pair: identical
// construction except for the interpreter path (Reference on the oracle
// side; predecoded or, in Translated mode, superblock-translated on the
// fast side), exactly like the fixed differential workloads in
// internal/bench.
func buildMachine(prog *masm.Program, cfg Config, reference bool) (*core.Machine, error) {
	mcfg := core.Config{Memory: fuzzMemConfig, Reference: reference}
	if cfg.Translated && !reference {
		mcfg.Translation = core.Translation{Enable: true}
	}
	m, err := core.New(mcfg)
	if err != nil {
		return nil, err
	}
	m.Load(&prog.Words)

	// Seed architectural state from the same stream both sides share.
	rng := rand.New(rand.NewSource(cfg.Seed ^ 0x5eed))
	for i := 0; i < 64; i++ {
		m.SetRM(i, uint16(rng.Uint32()))
	}
	for t := 0; t < core.NumTasks; t++ {
		m.SetT(t, uint16(rng.Uint32()))
	}
	m.SetCount(uint16(rng.Intn(40)))
	m.SetQ(uint16(rng.Uint32()))
	m.Mem().SetBase(2, 0x100)
	m.Mem().SetBase(3, 0x500)
	for va := uint32(0); va < 0x400; va++ {
		m.Mem().Poke(va, uint16(rng.Uint32()))
	}

	// Two live controllers so the scheduler, wakeup pipeline, and device
	// FIFOs are part of every run: a paced producer and an always-ready
	// loopback, each with the generated service routine.
	ws := device.NewWordSource(11, 27, 2)
	if err := m.Attach(ws); err != nil {
		return nil, err
	}
	m.SetIOAddress(11, 11)
	m.SetTPC(11, prog.MustEntry("svc"))
	lb := device.NewLoopback(9)
	lb.Arm(true)
	if err := m.Attach(lb); err != nil {
		return nil, err
	}
	m.SetIOAddress(9, 9)
	m.SetTPC(9, prog.MustEntry("svc"))

	if cfg.FastIO || cfg.Display {
		// The §7 fast-I/O pair on the generated "fio" routine: a display
		// draining blocks from storage and, with FastIO, a scanner writing
		// them back. Block offsets accumulate in RM[2] and wrap within the
		// small fuzz storage (memory.translate reduces out-of-range
		// addresses mod the store), so the traffic is endless but
		// deterministic.
		rate := 24
		if !cfg.FastIO {
			rate = 8
		}
		disp := device.NewDisplay(13, m.Mem(), rate, 4)
		disp.SetBase(0x800)
		if err := m.Attach(disp); err != nil {
			return nil, err
		}
		m.SetIOAddress(13, 13)
		m.SetTPC(13, prog.MustEntry("fio"))
		m.SetT(13, 16)
	}
	if cfg.FastIO {
		sc := device.NewScanner(12, m.Mem(), 40, 4)
		sc.SetBase(0xC00)
		if err := m.Attach(sc); err != nil {
			return nil, err
		}
		m.SetIOAddress(12, 12)
		m.SetTPC(12, prog.MustEntry("fio"))
		m.SetT(12, 16)
	}

	m.Start(prog.MustEntry("main"))
	return m, nil
}
