package bench

import (
	"bytes"
	"reflect"
	"testing"

	"dorado/internal/core"
	"dorado/internal/emulator"
	"dorado/internal/obs"
	"dorado/internal/trace"
)

// This file is the workload-level half of the interpreter differential
// test: each §7 experiment family (Mesa emulator, disk, fast I/O, slow I/O,
// BitBlt) runs once on each execution path — predecoded fast path,
// reference interpreter (Config.Reference, the seed's decode-every-cycle
// behavior), and superblock-translated (Config.Translation) — and all
// machines must agree cycle for cycle: identical tracer streams (fused
// superblock cycles included), identical Stats, registers and memory, and
// byte-identical metrics-recorder exports. The instruction-level scenarios
// live in internal/core/predecode_test.go and translate_test.go.

// diffTranslation is the translation config the differential workloads run
// under.
var diffTranslation = core.Translation{Enable: true}

// diffPaths lists the execution paths; the predecoded machine is the pivot.
var diffPaths = []struct {
	path string
	cfg  core.Config
}{
	{"predecoded", core.Config{}},
	{"reference", core.Config{Reference: true}},
	{"translated", core.Config{Translation: diffTranslation}},
}

// diffChunk is the lockstep slice between trace comparisons: it bounds the
// buffered events, and being prime it expires budgets mid-superblock.
const diffChunk = 10_007

// eventTracer buffers one chunk's trace events.
type eventTracer struct{ events []core.TraceEvent }

func (e *eventTracer) Trace(ev core.TraceEvent) { e.events = append(e.events, ev) }

// diffPair builds the workload once per path with a tracer on each, runs
// them in lockstep chunks for up to total cycles (stopping once the pivot
// halts), and fails on the first trace divergence; it then compares the
// final machine state and, on a second set of machines wearing only a
// metrics recorder, the Prometheus and Chrome-trace exports. fuses says
// whether the traced translated run must retire cycles inside superblocks.
// It returns the pivot machine.
func diffPair(t *testing.T, name string, total uint64, fuses bool, memLo, memHi uint32, build func(cfg core.Config) (*core.Machine, error)) *core.Machine {
	t.Helper()
	machines := make([]*core.Machine, len(diffPaths))
	tracers := make([]eventTracer, len(diffPaths))
	for i, p := range diffPaths {
		m, err := build(p.cfg)
		if err != nil {
			t.Fatalf("%s: %s build: %v", name, p.path, err)
		}
		m.SetTracer(&tracers[i])
		machines[i] = m
	}
	fast := machines[0]
	for done := uint64(0); done < total && !fast.Halted(); done += diffChunk {
		for i, m := range machines {
			tracers[i].events = tracers[i].events[:0]
			m.Run(min(diffChunk, total-done))
		}
		want := tracers[0].events
		for i := 1; i < len(machines); i++ {
			got := tracers[i].events
			for j := 0; j < len(want) && j < len(got); j++ {
				if want[j] != got[j] {
					t.Fatalf("%s: %s trace diverges at cycle %d:\n  predecoded: %+v\n  %s: %+v",
						name, diffPaths[i].path, want[j].Cycle, want[j], diffPaths[i].path, got[j])
				}
			}
			if len(got) != len(want) {
				t.Fatalf("%s: %s trace length differs after cycle %d: predecoded %d events, %s %d",
					name, diffPaths[i].path, done, len(want), diffPaths[i].path, len(got))
			}
		}
	}
	tr := machines[len(machines)-1]
	ts := tr.TranslationStats()
	// The translator must at least have engaged, or this differential
	// would be vacuous. Slow I/O legitimately fuses nothing: its loopback
	// wakes its task every cycle, so the entry guard never opens.
	if ts.BlocksBuilt == 0 || (fuses && ts.FusedCycles == 0) {
		t.Errorf("%s: traced translated run did not engage the translator (stats %+v)", name, ts)
	}
	for i := 1; i < len(machines); i++ {
		diffState(t, name, diffPaths[i].path, fast, machines[i], memLo, memHi)
	}
	diffExports(t, name, fast.Cycle(), build)
	return fast
}

// diffState compares the final state of the pivot and one other path.
func diffState(t *testing.T, name, path string, fast, ref *core.Machine, memLo, memHi uint32) {
	t.Helper()
	if fast.Cycle() != ref.Cycle() {
		t.Errorf("%s: cycle count diverged: fast %d, %s %d", name, fast.Cycle(), path, ref.Cycle())
	}
	if fast.Halted() != ref.Halted() || fast.HaltPC() != ref.HaltPC() {
		t.Errorf("%s: halt state diverged: fast (%v,%v), %s (%v,%v)",
			name, fast.Halted(), fast.HaltPC(), path, ref.Halted(), ref.HaltPC())
	}
	if fs, rs := fast.Stats(), ref.Stats(); !reflect.DeepEqual(fs, rs) {
		t.Errorf("%s: stats diverged:\nfast: %+v\n%-4s: %+v", name, fs, path, rs)
	}
	if fast.CurTask() != ref.CurTask() || fast.CurPC() != ref.CurPC() {
		t.Errorf("%s: control diverged: fast (task %d, pc %v), %s (task %d, pc %v)",
			name, fast.CurTask(), fast.CurPC(), path, ref.CurTask(), ref.CurPC())
	}
	for i := 0; i < 256; i++ {
		if fast.RM(i) != ref.RM(i) {
			t.Errorf("%s: RM[%d] diverged: fast %#04x, %s %#04x", name, i, fast.RM(i), path, ref.RM(i))
		}
		if fast.Stack(i) != ref.Stack(i) {
			t.Errorf("%s: stack[%d] diverged: fast %#04x, %s %#04x", name, i, fast.Stack(i), path, ref.Stack(i))
		}
	}
	for task := 0; task < 16; task++ {
		if fast.T(task) != ref.T(task) || fast.TPC(task) != ref.TPC(task) {
			t.Errorf("%s: task %d diverged: fast (T %#04x, TPC %v), %s (T %#04x, TPC %v)",
				name, task, fast.T(task), fast.TPC(task), path, ref.T(task), ref.TPC(task))
		}
	}
	for a := memLo; a < memHi; a++ {
		if fv, rv := fast.Mem().Peek(a), ref.Mem().Peek(a); fv != rv {
			t.Errorf("%s: memory %#x diverged: fast %#04x, %s %#04x", name, a, fv, path, rv)
		}
	}
}

// diffExports runs the workload for cycles on every path with only a
// metrics recorder attached — the production shape, where the translated
// path keeps its quiescent block loop — and requires byte-identical
// Prometheus and Chrome-trace exports.
func diffExports(t *testing.T, name string, cycles uint64, build func(cfg core.Config) (*core.Machine, error)) {
	t.Helper()
	var wantProm, wantTrace []byte
	for i, p := range diffPaths {
		m, err := build(p.cfg)
		if err != nil {
			t.Fatalf("%s: %s build: %v", name, p.path, err)
		}
		rec := obs.NewRecorder()
		m.SetRecorder(rec)
		m.Run(cycles)
		rec.Flush(m.Cycle())
		var prom, chrome bytes.Buffer
		if err := obs.WritePrometheus(&prom, trace.MetricsSnapshot(m, rec)); err != nil {
			t.Fatal(err)
		}
		if err := obs.WriteChromeTrace(&chrome, rec); err != nil {
			t.Fatal(err)
		}
		if i == 0 {
			wantProm, wantTrace = prom.Bytes(), chrome.Bytes()
			continue
		}
		if !bytes.Equal(prom.Bytes(), wantProm) {
			t.Errorf("%s: %s Prometheus export differs from predecoded:\n%s\nvs\n%s", name, p.path, prom.Bytes(), wantProm)
		}
		if !bytes.Equal(chrome.Bytes(), wantTrace) {
			t.Errorf("%s: %s Chrome-trace export differs from predecoded (%d vs %d bytes)",
				name, p.path, chrome.Len(), len(wantTrace))
		}
	}
}

// TestDifferentialMesaEmulator runs a mixed Mesa macroprogram (loads,
// stores, arithmetic, a counted loop — the §7 emulator-mix shape) through
// the full IFU dispatch pipeline on every path.
func TestDifferentialMesaEmulator(t *testing.T) {
	build := func(cfg core.Config) (*core.Machine, error) {
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
		a.OpB("LIB", 1)
		a.Op("SUB")
		a.Op("DUP")
		a.OpB("SL", 4)
		a.OpL("JNZ", "loop")
		a.Op("HALT")
		if err := a.Install(m); err != nil {
			return nil, err
		}
		mesa.InstallOn(m)
		return m, nil
	}
	diffPair(t, "mesa-emulator", 2_000_000, true, emulator.VAFrames, emulator.VAFrames+0x100, build)
}

// TestDifferentialMesaCalls runs compiled Mesa with recursive calls,
// wide operands and frequent macro jumps (the mesacalls workload) on
// every path.
func TestDifferentialMesaCalls(t *testing.T) {
	diffPair(t, "mesacalls", 300_000, true, emulator.VAFrames, emulator.VAFrames+0x100, BuildMesaCallsMachine)
}

// TestDifferentialDisk runs the E4 shape: disk word-source task alongside
// the counting emulator, the 3-cycles-per-2-words transfer idiom.
func TestDifferentialDisk(t *testing.T) {
	diffPair(t, "disk", 60_000, true, 0x6000, 0x6200, BuildDiskMachine)
}

// TestDifferentialFastIO runs the E5 shape: display device at full memory
// bandwidth, two microinstructions per 16-word block.
func TestDifferentialFastIO(t *testing.T) {
	diffPair(t, "fast-io", 60_000, true, 0x20000, 0x20100, BuildFastIOMachine)
}

// TestDifferentialSlowIO runs the E6 shape: loopback device, one word per
// cycle through IODATA, loop closed on COUNT.
func TestDifferentialSlowIO(t *testing.T) {
	diffPair(t, "slow-io", 30_000, false, 0x6000, 0x6400, BuildSlowIOMachine)
}

// TestDifferentialDevices runs the machine perfbench's devices sessions
// run (examples/microcode/devices.dasm): the display's fast I/O takes
// every storage cycle, so the disk task holds on its store in long runs.
// Its blocks all carry the Block bit and no task-0 cycle runs long enough
// to enter one, so the translated run fuses nothing.
func TestDifferentialDevices(t *testing.T) {
	diffPair(t, "devices", 60_000, false, 0, 0x200, DevicesBuilder(devicesSource(t)))
}

// TestDifferentialBitBlt runs the E3 shape: a bit-aligned merge over a
// screen-sized region, the heaviest shifter/masker workload.
func TestDifferentialBitBlt(t *testing.T) {
	if m := diffPair(t, "bitblt", 2_000_000, true, 0x40000, 0x40000+32*24, BuildBitBltMachine); !m.Halted() {
		t.Fatal("bitblt did not halt")
	}
}
