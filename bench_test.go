package dorado

import (
	"testing"

	"dorado/internal/bench"
)

// The benchmark harness: one testing.B per experiment in DESIGN.md's
// index. Each iteration re-runs the full experiment (simulator workload +
// measurement); the benchmark fails if the measured shape stops matching
// the paper, so `go test -bench=.` doubles as the reproduction check.
// EXPERIMENTS.md records the paper-vs-measured values (regenerate them
// with cmd/benchtab).
func runExperiment(b *testing.B, run func() bench.Table) {
	b.Helper()
	var tab bench.Table
	for i := 0; i < b.N; i++ {
		tab = run()
	}
	if tab.Err != nil {
		b.Fatalf("experiment error: %v", tab.Err)
	}
	if !tab.Pass {
		b.Errorf("shape mismatch:\n%s", tab)
	}
}

// BenchmarkE1MesaSimpleOps — "a simple macroinstruction in one cycle".
func BenchmarkE1MesaSimpleOps(b *testing.B) { runExperiment(b, bench.E1MesaSimpleOps) }

// BenchmarkE2OpcodeClasses — µinstructions per opcode class, all four
// emulators (§7's Mesa/BCPL/Lisp counts).
func BenchmarkE2OpcodeClasses(b *testing.B) { runExperiment(b, bench.E2OpcodeClasses) }

// BenchmarkE3BitBlt — 34 Mbit/s simple vs 24 Mbit/s complex raster ops.
func BenchmarkE3BitBlt(b *testing.B) { runExperiment(b, bench.E3BitBlt) }

// BenchmarkE4DiskUtilization — the 10 Mbit/s disk costs 5% of the processor.
func BenchmarkE4DiskUtilization(b *testing.B) { runExperiment(b, bench.E4DiskUtilization) }

// BenchmarkE5FastIO — 530 Mbit/s of fast I/O on 25% of the cycles.
func BenchmarkE5FastIO(b *testing.B) { runExperiment(b, bench.E5FastIO) }

// BenchmarkE6SlowIO — one word per cycle (265 Mbit/s) over IODATA.
func BenchmarkE6SlowIO(b *testing.B) { runExperiment(b, bench.E6SlowIO) }

// BenchmarkE7Placement — 99.9% microstore utilization under the
// page/branch-pair placement constraints.
func BenchmarkE7Placement(b *testing.B) { runExperiment(b, bench.E7Placement) }

// BenchmarkE8GrainAblation — 2-cycle grain (25%) vs 3-cycle grain (37.5%).
func BenchmarkE8GrainAblation(b *testing.B) { runExperiment(b, bench.E8GrainAblation) }

// BenchmarkE9TaskSwitch — 2-cycle wakeup latency, zero-overhead switching.
func BenchmarkE9TaskSwitch(b *testing.B) { runExperiment(b, bench.E9TaskSwitch) }

// BenchmarkE10BypassAblation — Model 0's missing bypasses: bugs + slowdown.
func BenchmarkE10BypassAblation(b *testing.B) { runExperiment(b, bench.E10BypassAblation) }

// BenchmarkE11BranchAblation — free branches vs +1-cycle delayed branches.
func BenchmarkE11BranchAblation(b *testing.B) { runExperiment(b, bench.E11BranchAblation) }

// BenchmarkE12HoldVsAlternatives — Hold vs fixed-wait vs polling (§5.7).
func BenchmarkE12HoldVsAlternatives(b *testing.B) { runExperiment(b, bench.E12HoldVsAlternatives) }

// BenchmarkE13MemoryLatency — hit 2 cycles, miss > 10× hit, storage 1/8 cycles.
func BenchmarkE13MemoryLatency(b *testing.B) { runExperiment(b, bench.E13MemoryLatency) }

// BenchmarkE14FunctionCall — calls ≈50 µinst in Mesa, ≈200 in Lisp.
func BenchmarkE14FunctionCall(b *testing.B) { runExperiment(b, bench.E14FunctionCall) }

// BenchmarkSimulatorThroughput measures the simulator itself: host time
// per simulated machine cycle for a representative Mesa workload.
func BenchmarkSimulatorThroughput(b *testing.B) {
	sys, err := New(WithLanguage(Mesa))
	if err != nil {
		b.Fatal(err)
	}
	asm := sys.Asm()
	asm.OpB("LIB", 100).OpB("SL", 4)
	asm.Label("loop")
	asm.OpB("LL", 4).OpW("LIW", 1).Op("SUB").OpB("SL", 4)
	asm.OpB("LL", 4).OpL("JNZ", "loop")
	asm.Op("HALT")
	var cycles, prev uint64
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := sys.Boot(asm); err != nil {
			b.Fatal(err)
		}
		if !sys.Run(10_000_000) {
			b.Fatal("did not halt")
		}
		cycles += sys.Machine.Cycle() - prev
		prev = sys.Machine.Cycle()
	}
	b.ReportMetric(float64(cycles)/float64(b.N), "cycles/op")
}

// BenchmarkNewMesa measures building a Mesa system: the machine and its
// memory, pointing at the shared all-HALT microstore and the empty decode
// table, with nothing filled or copied. New loads no microcode; Boot
// points the machine at the shared Mesa image. The fleet builds one for
// every create, revive and fork of a Mesa session.
func BenchmarkNewMesa(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		sys, err := New(WithLanguage(Mesa))
		if err != nil {
			b.Fatal(err)
		}
		systemSink = sys
	}
}

// BenchmarkCreateBoot measures a fleet create of a Mesa session: build
// the system, then compile a program and boot it.
func BenchmarkCreateBoot(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		sys, err := New(WithLanguage(Mesa))
		if err != nil {
			b.Fatal(err)
		}
		if err := sys.BootSource("return 6*7;"); err != nil {
			b.Fatal(err)
		}
		systemSink = sys
	}
}

// BenchmarkRevive measures a fleet revive or fork without the store:
// build a Mesa system and restore a booted Mesa session's snapshot onto
// it. The snapshot's microstore run and decode table match the shared
// Mesa image, so the restore compares each once and points the machine at
// the image; what remains is mostly the memory system's state.
func BenchmarkRevive(b *testing.B) {
	src, err := New(WithLanguage(Mesa))
	if err != nil {
		b.Fatal(err)
	}
	if err := src.BootSource("return 6*7;"); err != nil {
		b.Fatal(err)
	}
	if !src.Run(1_000_000) {
		b.Fatal("did not halt")
	}
	snap := src.Machine.Snapshot()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sys, err := New(WithLanguage(Mesa))
		if err != nil {
			b.Fatal(err)
		}
		if err := sys.Machine.Restore(snap); err != nil {
			b.Fatal(err)
		}
		systemSink = sys
	}
}

// systemSink keeps the built systems live.
var systemSink *System
