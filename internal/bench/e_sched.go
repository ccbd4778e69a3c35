package bench

import (
	"fmt"

	"dorado/internal/core"
	"dorado/internal/device"
	"dorado/internal/masm"
	"dorado/internal/microcode"
)

// E9TaskSwitch reproduces the task-pipeline timing of §5.2–§5.4/§6.2.1:
// a wakeup reaches the NEXT bus one cycle later and the task runs one cycle
// after that (two cycles total), and the switch itself steals nothing from
// the preempted emulator beyond the service instructions.
func E9TaskSwitch() Table {
	const title = "Task switch latency and overhead"
	const claim = `"it takes a minimum of two cycles from the time a wakeup changes to the time this change can affect the running task"; switching is free of overhead (§4, §6.2.1)`
	build := func(withDevice bool, period int, cycles uint64) (emuCount uint16, services uint16, lats []uint64, err error) {
		b := masm.NewBuilder()
		emuLoop(b)
		b.EmitAt("svc", masm.I{ALU: microcode.ALUAplus1, A: microcode.ASelRM, R: 1, LC: microcode.LCLoadRM})
		b.Emit(masm.I{Block: true, Flow: masm.Goto("svc")})
		m, p, err := ioMachine(b.Assemble, core.Config{})
		if err != nil {
			return 0, 0, nil, err
		}
		var pulse *device.Pulse
		if withDevice {
			pulse = device.NewPulse(10, period)
			if err := m.Attach(pulse); err != nil {
				return 0, 0, nil, err
			}
			m.SetTPC(10, p.MustEntry("svc"))
		}
		m.Run(cycles)
		if pulse != nil {
			lats = pulse.Latencies()
		}
		return m.RM(0), m.RM(1), lats, nil
	}
	const cycles = 10_000
	const period = 100
	quiet, _, _, err := build(false, 0, cycles)
	if err != nil {
		return fail("E9", title, err)
	}
	busy, services, lats, err := build(true, period, cycles)
	if err != nil {
		return fail("E9", title, err)
	}
	// NEXT shows the task number one cycle after the wakeup.
	nextLatOK := len(lats) > 0
	for _, l := range lats {
		if l != 1 {
			nextLatOK = false
		}
	}
	overhead := float64(quiet-busy) / float64(services) // emulator cycles lost per service
	// Exactly the two service instructions per wakeup (a wakeup straddling
	// the measurement end can shave a fraction).
	pass := nextLatOK && services > 0 && overhead >= 1.9 && overhead <= 2.05
	return Table{
		ID: "E9", Title: title, Claim: claim,
		Rows: []Row{
			{"wakeup → NEXT", "1 cycle", "1 cycle", fmt.Sprintf("%d wakeups observed", len(lats))},
			{"wakeup → first µinst", "2 cycles", "2 cycles", "validated by core's pipeline tests"},
			{"switch overhead", "0 cycles", f1(overhead - 2), fmt.Sprintf("emulator lost %.0f cycles per 2-µinst service", overhead)},
		},
		Pass: pass,
	}
}

// E13MemoryLatency reproduces the memory-system timing the processor
// design assumes (§3, §5.7, §6.2.1).
func E13MemoryLatency() Table {
	const title = "Memory timing: cache hit, miss, storage rate"
	const claim = `cache "has a latency of two cycles, and can deliver a word every cycle" (§3); hit/miss gap "more than an order of magnitude" (§5.7); storage ref "one every eight cycles" (§6.2.1)`
	m, err := core.New(core.Config{})
	if err != nil {
		return fail("E13", title, err)
	}
	mem := m.Mem()

	// Hit latency: warm a line, fetch, count cycles to ready. Each fetch
	// is admitted (the processor's Hold phase, §5.7), then committed.
	mem.Warm(64)
	r, _, _ := mem.Admit(0, 64, false, 1000)
	mem.Read(0, r, 1000)
	hit := 0
	for !mem.MDReady(0, uint64(1000+hit)) {
		hit++
	}
	mem.MD(0, uint64(1000+hit))

	// Miss latency.
	r, _, _ = mem.Admit(0, 0x9000, false, 2000)
	mem.Read(0, r, 2000)
	miss := 0
	for !mem.MDReady(0, uint64(2000+miss)) {
		miss++
	}
	mem.MD(0, uint64(2000+miss))

	// Storage spacing: after one miss, the next miss cannot start for 8 cycles.
	r, _, _ = mem.Admit(1, 0xA000, false, 3000)
	mem.Read(1, r, 3000)
	spacing := 0
	for ; spacing < 100; spacing++ {
		if _, _, ok := mem.Admit(2, 0xB000, false, uint64(3000+spacing)); ok {
			break
		}
	}

	// Hit throughput: one reference per cycle across tasks.
	throughputOK := true
	for i := 0; i < 4; i++ {
		now := uint64(4000 + i)
		if r, _, ok := mem.Admit(i+3, uint32(64+i), false, now); ok {
			mem.Read(i+3, r, now)
		} else {
			throughputOK = false
		}
	}

	ratio := float64(miss) / float64(hit)
	pass := hit == 2 && miss >= 20 && spacing == 8 && ratio > 10 && throughputOK
	tp := "1/cycle"
	if !throughputOK {
		tp = "below 1/cycle"
	}
	return Table{
		ID: "E13", Title: title, Claim: claim,
		Rows: []Row{
			{"cache hit latency", "2 cycles", fmt.Sprintf("%d cycles", hit), ""},
			{"cache miss latency", "(best:worst > 10×)", fmt.Sprintf("%d cycles", miss), fmt.Sprintf("ratio %.1f×", ratio)},
			{"storage ref spacing", "8 cycles", fmt.Sprintf("%d cycles", spacing), "main storage RAM cycle"},
			{"hit throughput", "1 ref/cycle", tp, "fully segmented pipeline"},
		},
		Pass: pass,
	}
}
