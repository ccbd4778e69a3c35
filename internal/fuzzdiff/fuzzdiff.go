// Package fuzzdiff is the snapshot-anchored differential fuzzer: it
// generates random-but-valid microprograms and runs each one on the
// reference interpreter (core.Config.Reference), the predecoded hot loop
// and the superblock translator in lockstep. It uses machine snapshots
// (internal/state) two ways:
//
//   - as the equality oracle: machines in identical architectural states
//     produce byte-identical snapshots (the execution path is not part of
//     the snapshot), so one bytes.Equal per fast path per checkpoint
//     replaces a field-by-field comparison of the entire machine;
//   - as bisection anchors: a checkpoint is taken every K cycles, and when
//     a fast path leaves the reference the harness restores that path and
//     the reference from the last agreeing checkpoint and reruns them for
//     1, 2, 3, ... cycles until the exact cycle — and thus the exact
//     microinstruction — where they first disagree.
//
// Each fast path is judged on its own: one that leaves the reference is
// bisected and dropped, and the other keeps running against the
// reference, so a divergence on one path never hides one on the other.
// Each Divergence names its path and carries a ready-to-paste regression
// test, so an overnight fuzz finding becomes a one-line repro in the test
// suite.
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

// Path names one of the core's three execution paths.
type Path int

const (
	Reference  Path = iota // the reference interpreter: the oracle
	Predecoded             // the predecoded hot loop
	Translated             // superblock translation, blocks built at an address's first visit
)

// String names the path as reports and repros print it.
func (p Path) String() string { return [...]string{"reference", "predecoded", "translated"}[p] }

// fastPaths are the paths every run checks against the reference.
var fastPaths = [...]Path{Predecoded, Translated}

// Shape selects the controllers attached to every machine of a run. All
// three machines get identical devices, so the oracle is unchanged.
type Shape int

const (
	// Bare attaches two slow-I/O controllers on the generated "svc"
	// routine: a paced word source and an always-ready loopback. They put
	// the scheduler, the wakeup pipeline and the device FIFOs into every
	// run, and every shape has them.
	Bare Shape = iota
	// FastIO adds the §7 fast-I/O pair on the generated "fio" routine: a
	// display consuming 16-word blocks from storage and a scanner
	// producing them. It widens the differential to direct storage
	// transfers, cache invalidations and the extra wakeup traffic they
	// cause. Both promise event horizons that rest on the storage pipe's
	// release, so this shape checks those promises against the reference,
	// which scans devices every cycle.
	FastIO
	// Devices adds the display alone, at full storage bandwidth (a block
	// every 8 cycles): the shape of perfbench's devices sessions, where
	// every controller has an event horizon and the held-run shortcut
	// carries the work.
	Devices
	// NumShapes counts the shapes; a fuzz campaign runs every seed on each.
	NumShapes
)

// String names the shape as campaign reports print it.
func (s Shape) String() string { return [...]string{"bare", "fastio", "devices"}[s] }

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
	// Shape selects the controllers attached to all three machines.
	Shape Shape

	// Tamper, when set, mutates a fast machine before the given cycle
	// executes — a fault injector proving a harness detects and localizes
	// divergence. It is called on each fast machine with its path, so a
	// test can seed a bug in one path. The fuzz-farm self-test seeds a bug
	// through it to verify the farm finds, minimizes, and reports the
	// divergence end to end; it costs single-stepped (unbatched) execution
	// of the fast paths, so leave it nil outside fault-injection tests.
	Tamper func(cycle uint64, path Path, fast *core.Machine)
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

// Divergence describes the first cycle at which a fast path disagreed
// with the reference, pinned to the single microinstruction that exposed
// it.
type Divergence struct {
	Seed  int64
	Path  Path           // the fast path that left the reference
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
	return fmt.Sprintf("seed %d: %v path diverges from the reference at cycle %d (task %d, pc %v, word %+v): %s",
		d.Seed, d.Path, d.Cycle, d.Task, d.PC, d.Word, d.Detail)
}

// Result is the outcome of one fuzz run: the seed, how much work it
// represents, and the bisected divergence of each fast path that left the
// reference. internal/fuzzfarm aggregates Results into its campaign
// report.
type Result struct {
	// Seed is Config.Seed, echoed so aggregators need not carry the Config.
	Seed int64
	// Cycles is the number of cycles the reference simulated — Config.Cycles
	// unless the machine halted early or both fast paths diverged first.
	Cycles uint64
	// Halted reports that the program executed a Halt before the cycle
	// budget ran out, on the reference and on every fast path still
	// agreeing with it.
	Halted bool
	// Divergences holds each diverging fast path's bisected first
	// disagreement, in the order the checkpoints found them; it is empty
	// when both fast paths agreed with the reference for the whole run.
	Divergences []*Divergence
}

// lane is one fast machine running against the reference.
type lane struct {
	path Path
	m    *core.Machine
}

// Run executes one deterministic fuzz run: the reference, predecoded and
// translated machines step in lockstep, and each fast snapshot is compared
// with the reference's at every checkpoint.
func Run(cfg Config) (Result, error) {
	cfg = cfg.withDefaults()
	res := Result{Seed: cfg.Seed}
	prog, err := generate(cfg.Seed, cfg.Instructions)
	if err != nil {
		return res, err
	}
	ref, err := buildMachine(prog, cfg, Reference)
	if err != nil {
		return res, err
	}
	// Every lane still running agreed with the reference at every
	// checkpoint, so the reference's last checkpoint is each one's last
	// agreeing state.
	lastGood := ref.Snapshot()
	var live []lane
	for _, p := range fastPaths {
		m, err := buildMachine(prog, cfg, p)
		if err != nil {
			return res, err
		}
		if !bytes.Equal(m.Snapshot(), lastGood) {
			return res, fmt.Errorf("fuzzdiff: %v machine differs from the reference before cycle 0 (builder bug)", p)
		}
		live = append(live, lane{p, m})
	}

	for len(live) > 0 && ref.Cycle() < cfg.Cycles && !ref.Halted() {
		k := min(cfg.CheckpointEvery, cfg.Cycles-ref.Cycle())
		ref.RunCycles(k)
		rsnap := ref.Snapshot()
		agreeing := live[:0]
		for _, l := range live {
			advance(cfg, l, k)
			if bytes.Equal(l.m.Snapshot(), rsnap) {
				agreeing = append(agreeing, l)
				continue
			}
			d, err := bisect(cfg, prog, l.path, lastGood)
			if err != nil {
				return res, err
			}
			res.Divergences = append(res.Divergences, d)
		}
		live = agreeing
		lastGood = rsnap
	}
	res.Cycles = ref.Cycle()
	res.Halted = ref.Halted()
	return res, nil
}

// advance runs a fast machine k cycles. With a Tamper installed it runs
// them one at a time, calling Tamper before each, through RunCycles(1):
// Step would run a translated machine's cycle on the plain interpreter,
// the very path it is not testing. The reference needs no such care: it
// ignores event horizons, so one RunCycles(k) is k Steps.
func advance(cfg Config, l lane, k uint64) {
	if cfg.Tamper == nil {
		l.m.RunCycles(k)
		return
	}
	for i := uint64(0); i < k && !l.m.Halted(); i++ {
		cfg.Tamper(l.m.Cycle(), l.path, l.m)
		l.m.RunCycles(1)
	}
}

// bisect restores path p from the last agreeing checkpoint and reruns it
// for n = 1, 2, 3, ... cycles until its post-state first differs from the
// reference's. Each rerun is one batched run, as the scan's were, so a
// divergence that only a multi-cycle run can show (the device event
// horizon, or held cycles retired in bulk) is localized too; stepping one
// cycle at a time would hide it. The reference has no such shortcuts, so
// it steps one cycle per rerun from the checkpoint.
func bisect(cfg Config, prog *masm.Program, p Path, lastGood []byte) (*Divergence, error) {
	fast, err := buildMachine(prog, cfg, p)
	if err != nil {
		return nil, err
	}
	ref, err := buildMachine(prog, cfg, Reference)
	if err != nil {
		return nil, err
	}
	if err := ref.Restore(lastGood); err != nil {
		return nil, fmt.Errorf("fuzzdiff: restore checkpoint onto reference path: %w", err)
	}
	// The cycle the next rerun adds, and the instruction it runs.
	cycle := ref.Cycle()
	task, pc := ref.CurTask(), ref.CurPC()
	for n := uint64(1); n <= cfg.CheckpointEvery; n++ {
		if err := fast.Restore(lastGood); err != nil {
			return nil, fmt.Errorf("fuzzdiff: restore checkpoint onto %v path: %w", p, err)
		}
		ref.RunCycles(1)
		advance(cfg, lane{p, fast}, n)
		fsnap, rsnap := fast.Snapshot(), ref.Snapshot()
		if !bytes.Equal(fsnap, rsnap) {
			d := &Divergence{
				Seed:   cfg.Seed,
				Path:   p,
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
	return nil, fmt.Errorf("fuzzdiff: %v checkpoint disagreed but rerunning from it did not diverge within %d cycles", p, cfg.CheckpointEvery)
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

// repro renders a ready-to-paste regression test: minimal cycle budget
// (one past the diverging cycle), the same seed, program size and shape.
// It runs both fast paths, like every Run.
func repro(cfg Config, d *Divergence) string {
	shape := [...]string{"Bare", "FastIO", "Devices"}[cfg.Shape]
	return fmt.Sprintf(`// Regression: the %v path diverged from the reference on the %v shape.
//   seed=%d cycle=%d task=%d pc=%v
//   word=%+v (raw %#011x)
func TestFuzzDiffSeed%d(t *testing.T) {
	res, err := fuzzdiff.Run(fuzzdiff.Config{
		Seed:            %d,
		Instructions:    %d,
		Cycles:          %d,
		CheckpointEvery: %d,
		Shape:           fuzzdiff.%s,
	})
	if err != nil {
		t.Fatal(err)
	}
	for _, d := range res.Divergences {
		t.Errorf("interpreter divergence: %%v", d)
	}
}
`, d.Path, cfg.Shape, d.Seed, d.Cycle, d.Task, d.PC, d.Word, d.Word.Encode(),
		d.Seed, d.Seed, cfg.Instructions, d.Cycle+1, cfg.CheckpointEvery, shape)
}

// fuzzMemConfig keeps storage small so per-checkpoint snapshots stay cheap
// (a snapshot embeds all of storage).
var fuzzMemConfig = memory.Config{
	CacheWords:   256,
	CacheWays:    2,
	StorageWords: 4096,
}

// buildMachine assembles one machine of the lockstep run: identical
// construction except for the execution path p, exactly like the fixed
// differential workloads in internal/bench.
func buildMachine(prog *masm.Program, cfg Config, p Path) (*core.Machine, error) {
	mcfg := core.Config{
		Memory:      fuzzMemConfig,
		Reference:   p == Reference,
		Translation: core.Translation{Enable: p == Translated},
	}
	m, err := core.New(mcfg)
	if err != nil {
		return nil, err
	}
	m.Load(&prog.Words)

	// Seed architectural state from the same stream all three machines share.
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

	if cfg.Shape != Bare {
		// The display on the generated "fio" routine. Block offsets
		// accumulate in RM[2] and wrap within the small fuzz storage
		// (memory.translate reduces out-of-range addresses mod the store),
		// so the traffic is endless but deterministic.
		rate := 24
		if cfg.Shape == Devices {
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
	if cfg.Shape == FastIO {
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
