package emulator

import (
	"testing"

	"dorado/internal/core"
)

// benchMesa runs a Mesa loop workload once per iteration, reporting
// simulated macroinstructions per host second.
func BenchmarkMesaEmulation(b *testing.B) {
	p := Mesa()
	m, err := core.New(core.Config{})
	if err != nil {
		b.Fatal(err)
	}
	a := NewAsm(p)
	a.OpB("LIB", 200).OpB("SL", 4)
	a.Label("loop")
	a.OpB("LL", 4).OpW("LIW", 1).Op("SUB").OpB("SL", 4)
	a.OpB("LL", 4).OpL("JNZ", "loop")
	a.Op("HALT")
	if err := a.Install(m); err != nil {
		b.Fatal(err)
	}
	var macro uint64
	start := m.Cycle()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		p.InstallOn(m)
		if !m.Run(10_000_000) {
			b.Fatal("did not halt")
		}
		macro += m.IFU().Stats().Dispatches
	}
	b.ReportMetric(float64(macro)/float64(b.N), "macroinst/op")
	b.ReportMetric(float64(m.Cycle()-start)/b.Elapsed().Seconds(), "cycles/sec")
}

// steadyMesaMachine boots the Mesa emulator on an endless macroinstruction
// loop: IFU dispatch, frame load/store, and a taken conditional jump every
// iteration — the steady-state emulator workload.
func steadyMesaMachine(b *testing.B) *core.Machine {
	p := Mesa()
	m, err := core.New(core.Config{})
	if err != nil {
		b.Fatal(err)
	}
	a := NewAsm(p)
	a.OpB("LIB", 40).OpB("SL", 4)
	a.Label("loop")
	a.OpB("LL", 4).Op("DUP").OpB("SL", 4)
	a.OpL("JNZ", "loop") // always taken: the loop never exits
	if err := a.Install(m); err != nil {
		b.Fatal(err)
	}
	p.InstallOn(m)
	m.RunCycles(50_000) // past boot and cache warmup, into steady state
	return m
}

// BenchmarkStepBaseline is the acceptance benchmark for the predecoded hot
// loop: the steady-state emulator workload must simulate with zero heap
// allocations per cycle, and the cycles/sec metric is the headline host
// throughput number (compare BENCH_SIM.json).
func BenchmarkStepBaseline(b *testing.B) {
	m := steadyMesaMachine(b)
	const chunk = 10_000
	if avg := testing.AllocsPerRun(10, func() { m.RunCycles(chunk) }); avg != 0 {
		b.Fatalf("steady-state emulator workload allocates: %v allocs per %d cycles", avg, chunk)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m.RunCycles(1)
	}
	reportCycleRate(b)
}

// reportCycleRate emits cycles/sec when one iteration is one cycle.
func reportCycleRate(b *testing.B) {
	b.ReportMetric(float64(b.N)/b.Elapsed().Seconds(), "cycles/sec")
}
