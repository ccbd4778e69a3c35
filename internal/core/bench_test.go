package core

import (
	"testing"

	"dorado/internal/masm"
	"dorado/internal/microcode"
	"dorado/internal/state"
)

// reportCycleRate emits the host-throughput metric shared by every Step
// benchmark: one benchmark iteration is one simulated 60 ns cycle.
func reportCycleRate(b *testing.B) {
	b.ReportMetric(float64(b.N)/b.Elapsed().Seconds(), "cycles/sec")
}

// aluLoopMachine builds the pure data-section workload (no memory traffic).
func aluLoopMachine(b *testing.B, cfg Config) *Machine {
	bl := masm.NewBuilder()
	bl.EmitAt("start", masm.I{ALU: microcode.ALUAplus1, A: microcode.ASelT,
		LC: microcode.LCLoadT, Flow: masm.Goto("start")})
	p, err := bl.Assemble()
	if err != nil {
		b.Fatal(err)
	}
	m, err := New(cfg)
	if err != nil {
		b.Fatal(err)
	}
	m.Load(&p.Words)
	m.Start(p.MustEntry("start"))
	return m
}

// BenchmarkStepALULoop measures simulator throughput on pure data-section
// work (no memory traffic): host ns per simulated 60 ns cycle.
func BenchmarkStepALULoop(b *testing.B) {
	m := aluLoopMachine(b, Config{})
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m.Step()
	}
	reportCycleRate(b)
}

// BenchmarkStepALULoopReference is the same workload on the reference
// interpreter (per-cycle decode, Config.Reference) — the denominator of the
// predecode speedup.
func BenchmarkStepALULoopReference(b *testing.B) {
	m := aluLoopMachine(b, Config{Reference: true})
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m.Step()
	}
	reportCycleRate(b)
}

// BenchmarkStepMemoryLoop measures throughput with a cache-hit fetch+use
// per pair of cycles.
func BenchmarkStepMemoryLoop(b *testing.B) {
	bl := masm.NewBuilder()
	bl.EmitAt("start", masm.I{A: microcode.ASelFetch, R: 1})
	bl.Emit(masm.I{ALU: microcode.ALUB, B: microcode.BSelMD, LC: microcode.LCLoadT,
		Flow: masm.Goto("start")})
	p, err := bl.Assemble()
	if err != nil {
		b.Fatal(err)
	}
	m, err := New(Config{})
	if err != nil {
		b.Fatal(err)
	}
	m.Load(&p.Words)
	m.Start(p.MustEntry("start"))
	m.SetRM(1, 64)
	m.Mem().Warm(64)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m.Step()
	}
	reportCycleRate(b)
}

// BenchmarkStepWithDevices measures throughput with two live controllers.
func BenchmarkStepWithDevices(b *testing.B) {
	bl := masm.NewBuilder()
	bl.EmitAt("start", masm.I{ALU: microcode.ALUAplus1, A: microcode.ASelT,
		LC: microcode.LCLoadT, Flow: masm.Goto("start")})
	bl.EmitAt("svc", masm.I{FF: microcode.FFInput, ALU: microcode.ALUB, LC: microcode.LCLoadT})
	bl.Emit(masm.I{Block: true, Flow: masm.Goto("svc")})
	p, err := bl.Assemble()
	if err != nil {
		b.Fatal(err)
	}
	m, err := New(Config{})
	if err != nil {
		b.Fatal(err)
	}
	m.Load(&p.Words)
	m.Start(p.MustEntry("start"))
	for _, task := range []int{9, 11} {
		d := newProbeBench(task)
		if err := m.Attach(d); err != nil {
			b.Fatal(err)
		}
		m.SetIOAddress(task, uint16(task))
		m.SetTPC(task, p.MustEntry("svc"))
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m.Step()
	}
	reportCycleRate(b)
}

// newProbeBench is a periodic device for benchmarking.
func newProbeBench(task int) *benchDev { return &benchDev{task: task} }

type benchDev struct {
	task int
	wake bool
	n    uint64
}

func (d *benchDev) Task() int { return d.task }
func (d *benchDev) Tick(now uint64) {
	d.n++
	if d.n%50 == 0 {
		d.wake = true
	}
}
func (d *benchDev) Wakeup() bool           { return d.wake }
func (d *benchDev) NotifyNext(uint64)      { d.wake = false }
func (d *benchDev) Input(uint64) uint16    { return uint16(d.n) }
func (d *benchDev) Output(uint16, uint64)  {}
func (d *benchDev) Control(uint16, uint64) {}
func (d *benchDev) Atten() bool            { return false }
func (d *benchDev) State(c *state.Codec) {
	c.Bool(&d.wake)
	c.U64(&d.n)
}
func (d *benchDev) IdleUntil(now uint64) uint64 { return now }

// BenchmarkSnapshot measures encoding a whole machine. Since format
// version 2 the microstore (UIMS, 32 KiB) is most of the document, about
// 45 KiB here and 47 KiB for a booted Mesa session. Bytes/s is document
// bytes.
func BenchmarkSnapshot(b *testing.B) {
	m := snapMachine(b, Config{})
	m.RunCycles(5000)
	b.SetBytes(int64(len(m.Snapshot())))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		snapSink = m.Snapshot()
	}
}

// BenchmarkRestore measures decoding that document back onto a machine of
// the same configuration. Its microstore already holds the snapshot's
// words, so Restore decodes none of them again.
func BenchmarkRestore(b *testing.B) {
	m := snapMachine(b, Config{})
	m.RunCycles(5000)
	snap := m.Snapshot()
	fresh := snapMachine(b, Config{})
	b.SetBytes(int64(len(snap)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := fresh.Restore(snap); err != nil {
			b.Fatal(err)
		}
	}
}

// snapSink keeps BenchmarkSnapshot's result live.
var snapSink []byte
