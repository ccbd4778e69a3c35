package core_test

import (
	"bytes"
	"os"
	"reflect"
	"testing"

	"dorado/internal/bench"
	"dorado/internal/core"
)

// The observer-free differential. The traced differentials (internal/bench
// diff_test.go and the scenarios in this package) attach a tracer, which
// must see every cycle and so turns off the held-run shortcut
// (Machine.retireHeld); production machines carry no tracer. These tests
// run the predecoded and translated paths bare, in lockstep with the
// reference interpreter, and compare Stats, memory Stats and snapshot
// bytes after every chunk, so the device event horizon and the held-run
// shortcut are checked where they act.

// heldRunTranslation is the translated path of the lockstep runs below.
var heldRunTranslation = core.Translation{Enable: true}

// heldRunChunks is the lockstep schedule: prime-sized runs, which expire
// the budget mid-skip and mid-superblock, between 1- and 7-cycle runs,
// each of which starts with a forced device rescan.
var heldRunChunks = []uint64{9973, 1, 7, 4099, 7, 1, 2003}

// heldRunWorkload is one machine of the observer-free differential.
type heldRunWorkload struct {
	id     string
	cycles uint64
	build  func(cfg core.Config) (*core.Machine, error)
	// skips: the bare predecoded and translated runs must retire held
	// cycles in bulk.
	skips bool
}

// heldRunWorkloads returns the machine perfbench's devices sessions run
// (examples/microcode/devices.dasm), first, then the five §7 machines.
func heldRunWorkloads(t *testing.T) []heldRunWorkload {
	t.Helper()
	src, err := os.ReadFile("../../examples/microcode/devices.dasm")
	if err != nil {
		t.Fatal(err)
	}
	ws := []heldRunWorkload{{id: "devices", cycles: 200_000, build: bench.DevicesBuilder(string(src)), skips: true}}
	for _, w := range bench.Workloads() {
		ws = append(ws, heldRunWorkload{id: w.ID, cycles: 120_000, build: w.Build, skips: w.ID == "bitblt"})
	}
	return ws
}

// TestUntracedDifferential runs each workload bare on the reference,
// predecoded and translated paths in lockstep and requires identical
// Stats, memory Stats and snapshots after every chunk. The ablations that
// touch what the shortcuts rely on (the fixed-wait hold release, NEXT-bus
// notification, owed branch stalls) run on the reference and predecoded
// paths; translation requires the as-built machine.
func TestUntracedDifferential(t *testing.T) {
	for _, a := range []struct {
		name string
		opt  core.Options
	}{
		{"as-built", core.Options{}},
		{"fixed-wait", core.Options{FixedWaitMemory: true}},
		{"explicit-notify", core.Options{ExplicitNotify: true}},
		{"delayed-branch", core.Options{DelayedBranch: true}},
	} {
		cfgs := []core.Config{{Reference: true, Options: a.opt}, {Options: a.opt}}
		names := []string{"reference", "predecoded"}
		if a.opt == (core.Options{}) {
			cfgs = append(cfgs, core.Config{Translation: heldRunTranslation})
			names = append(names, "translated")
		}
		for _, w := range heldRunWorkloads(t) {
			t.Run(w.id+"/"+a.name, func(t *testing.T) {
				untracedLockstep(t, w, cfgs, names)
			})
		}
	}
}

// untracedLockstep runs w on each configuration, the first being the
// reference, and compares the others against it after every chunk.
func untracedLockstep(t *testing.T, w heldRunWorkload, cfgs []core.Config, names []string) {
	ms := make([]*core.Machine, len(cfgs))
	for i, cfg := range cfgs {
		m, err := w.build(cfg)
		if err != nil {
			t.Fatal(err)
		}
		ms[i] = m
	}
	ref := ms[0]
	for k := 0; ref.Cycle() < w.cycles && !ref.Halted(); k++ {
		n := heldRunChunks[k%len(heldRunChunks)]
		for _, m := range ms {
			m.Run(n)
		}
		want, wantMem, wantSnap := ref.Stats(), ref.Mem().Stats(), ref.Snapshot()
		for i := 1; i < len(ms); i++ {
			m := ms[i]
			if got := m.Stats(); !reflect.DeepEqual(got, want) {
				t.Fatalf("%s after cycle %d: stats diverged:\n%s: %+v\nreference:  %+v", names[i], ref.Cycle(), names[i], got, want)
			}
			if got := m.Mem().Stats(); got != wantMem {
				t.Fatalf("%s after cycle %d: memory stats diverged:\n%s: %+v\nreference:  %+v", names[i], ref.Cycle(), names[i], got, wantMem)
			}
			if !bytes.Equal(m.Snapshot(), wantSnap) {
				t.Fatalf("%s after cycle %d: snapshot differs from the reference", names[i], ref.Cycle())
			}
		}
	}
	for i := 1; i < len(ms); i++ {
		_, bulk := core.HorizonStats(ms[i])
		if w.skips && bulk == 0 {
			t.Errorf("%s: no held cycle was retired in bulk", names[i])
		}
		t.Logf("%s: %d of %d cycles retired in bulk", names[i], bulk, ms[i].Cycle())
	}
}

// TestProfilerOnlyMatchesTraced checks the bulk charges of the held-run
// shortcut: a profiler-only run, where held runs retire in one step, must
// produce the same profile and translator counters as a run that also
// carries a tracer, where every cycle is stepped, on both fast paths.
func TestProfilerOnlyMatchesTraced(t *testing.T) {
	for _, w := range heldRunWorkloads(t) {
		for _, cfg := range []core.Config{{}, {Translation: heldRunTranslation}} {
			var snaps [2]core.Snapshot
			var ts [2]core.TranslationStats
			for i, traced := range []bool{false, true} {
				m, err := w.build(cfg)
				if err != nil {
					t.Fatal(err)
				}
				p := core.NewProfiler()
				m.SetProfiler(p)
				if traced {
					m.SetTracer(discardTracer{})
				}
				m.Run(w.cycles)
				snaps[i], ts[i] = p.Snapshot(), m.TranslationStats()
			}
			if !reflect.DeepEqual(snaps[0], snaps[1]) {
				t.Errorf("%s (translation %v): profiler-only profile differs from the traced run's", w.id, cfg.Translation.Enable)
			}
			if ts[0] != ts[1] {
				t.Errorf("%s (translation %v): translator counters differ from the traced run's:\n%+v\n%+v", w.id, cfg.Translation.Enable, ts[0], ts[1])
			}
		}
	}
}

type discardTracer struct{}

func (discardTracer) Trace(core.TraceEvent) {}

// TestDevicesEventShape measures the event shortcuts on the machine
// perfbench's devices sessions run, over 1M steady cycles after 100k of
// warm-up: the display's consume and storage events, its two Output
// touches per service and the disk's word arrivals leave about a third
// of the cycles scanning devices, and the disk's holds between them
// retire in bulk. The log line is the E-HOLD figure in EXPERIMENTS.md.
func TestDevicesEventShape(t *testing.T) {
	m, err := heldRunWorkloads(t)[0].build(core.Config{})
	if err != nil {
		t.Fatal(err)
	}
	m.RunCycles(100_000)
	scans0, bulk0 := core.HorizonStats(m)
	const cycles = 1_000_000
	m.RunCycles(cycles)
	scans, bulk := core.HorizonStats(m)
	scans, bulk = scans-scans0, bulk-bulk0
	t.Logf("per %d steady cycles: %d device scans, %d cycles retired in bulk, %d stepped", cycles, scans, bulk, cycles-bulk)
	if scans > cycles/2 || bulk < cycles/4 {
		t.Errorf("%d scans and %d bulk-retired cycles per %d: the event horizon or the held-run shortcut stopped engaging", scans, bulk, cycles)
	}
}
