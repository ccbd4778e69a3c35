package core

import (
	"testing"

	"dorado/internal/masm"
	"dorado/internal/microcode"
	"dorado/internal/obs"
)

// The recorder hook must agree with the constants it mirrors.
func TestObsTaskCountMatches(t *testing.T) {
	if NumTasks != obs.MaxTasks {
		t.Fatalf("core.NumTasks=%d, obs.MaxTasks=%d", NumTasks, obs.MaxTasks)
	}
}

// The headline empirical check: an undisturbed device wakeup reaches its
// first executed instruction exactly two cycles after the edge (§5.4's
// "the latency between a wakeup request and the execution of the first
// microinstruction of the awakened task is two cycles").
func TestRecorderValidatesTwoCycleWakeup(t *testing.T) {
	b := masm.NewBuilder()
	emulatorLoop(b)
	b.EmitAt("svc", masm.I{ALU: microcode.ALUAplus1, A: microcode.ASelRM, R: 1, LC: microcode.LCLoadRM})
	b.Emit(masm.I{Block: true, Flow: masm.Goto("svc")})
	m := buildMachine(t, Config{}, b)
	rec := obs.NewRecorder()
	m.SetRecorder(rec)
	p := newProbe(5, 10, 60, 110)
	if err := m.Attach(p); err != nil {
		t.Fatal(err)
	}
	m.SetTPC(5, mustAssemble(t, b).MustEntry("svc"))
	for m.Cycle() < 200 {
		m.Step()
	}
	rec.Flush(m.Cycle())

	h := rec.WakeupToRun().Snapshot()
	if h.Total != 3 {
		t.Fatalf("wakeup-to-run samples = %d, want 3", h.Total)
	}
	if h.Sum != 6 {
		t.Errorf("wakeup-to-run sum = %d over 3 wakeups, want 6 (2 cycles each)", h.Sum)
	}
	// All three samples land in the le=2 bucket and none in le=1.
	if h.Counts[0] != 0 || h.Counts[1] != 3 {
		t.Errorf("histogram counts = %v (bounds %v)", h.Counts, h.Bounds)
	}
	if got := rec.Wakeups(5); got != 3 {
		t.Errorf("task 5 wakeup edges = %d, want 3", got)
	}
}

func TestRecorderSpansCoverRun(t *testing.T) {
	b := masm.NewBuilder()
	emulatorLoop(b)
	b.EmitAt("svc", masm.I{ALU: microcode.ALUAplus1, A: microcode.ASelRM, R: 1, LC: microcode.LCLoadRM})
	b.Emit(masm.I{Block: true, Flow: masm.Goto("svc")})
	m := buildMachine(t, Config{}, b)
	rec := obs.NewRecorder()
	m.SetRecorder(rec)
	p := newProbe(5, 10, 50)
	if err := m.Attach(p); err != nil {
		t.Fatal(err)
	}
	m.SetTPC(5, mustAssemble(t, b).MustEntry("svc"))
	// Two full timeline intervals and a partial third.
	for m.Cycle() < 2*rec.TimelineInterval()+100 {
		m.Step()
	}
	rec.Flush(m.Cycle())

	// Spans tile [0, 100) with no gaps or overlaps, and their per-task
	// cycle totals equal the machine's own counters.
	var covered uint64
	var perTask [NumTasks]uint64
	var prevEnd uint64
	for i, sp := range rec.Spans() {
		if sp.Start != prevEnd {
			t.Errorf("span %d starts at %d, previous ended at %d", i, sp.Start, prevEnd)
		}
		if sp.End <= sp.Start {
			t.Errorf("span %d empty: %+v", i, sp)
		}
		covered += sp.End - sp.Start
		perTask[sp.Task] += sp.End - sp.Start
		prevEnd = sp.End
	}
	if covered != m.Cycle() {
		t.Errorf("spans cover %d cycles, machine ran %d", covered, m.Cycle())
	}
	st := m.Stats()
	for task := 0; task < NumTasks; task++ {
		if perTask[task] != st.TaskCycles[task] {
			t.Errorf("task %d: spans total %d cycles, stats say %d",
				task, perTask[task], st.TaskCycles[task])
		}
	}

	// The timeline's slice sums also match the machine's counters.
	var tl [NumTasks]uint64
	for _, sl := range rec.Timeline() {
		for task := 0; task < NumTasks; task++ {
			tl[task] += uint64(sl.Cycles[task])
		}
	}
	// The last partial interval is not yet sampled; totals must not exceed
	// the stats and must cover all full intervals.
	interval := rec.TimelineInterval()
	full := m.Cycle() / interval * interval
	var tlTotal uint64
	for task := 0; task < NumTasks; task++ {
		tlTotal += tl[task]
		if tl[task] > st.TaskCycles[task] {
			t.Errorf("timeline task %d = %d > stats %d", task, tl[task], st.TaskCycles[task])
		}
	}
	if tlTotal != full {
		t.Errorf("timeline covers %d cycles, want %d full intervals", tlTotal, full)
	}
}

func TestRecorderHoldEpisodesMatchStats(t *testing.T) {
	// A cold-miss MD use holds for the storage latency: one long episode
	// whose length equals the machine's hold counter.
	b := masm.NewBuilder()
	b.EmitAt("start", masm.I{Const: 0x4000, HasConst: true, ALU: microcode.ALUB, LC: microcode.LCLoadRM, R: 1})
	b.Emit(masm.I{A: microcode.ASelFetch, R: 1})
	b.Emit(masm.I{ALU: microcode.ALUB, B: microcode.BSelMD, LC: microcode.LCLoadT})
	b.Halt()
	m := buildMachine(t, Config{}, b)
	rec := obs.NewRecorder()
	m.SetRecorder(rec)
	mustHalt(t, m, 1000)
	rec.Flush(m.Cycle())

	st := m.Stats()
	h := rec.HoldLatency().Snapshot()
	if st.Holds == 0 {
		t.Fatal("workload produced no holds")
	}
	if h.Sum != st.Holds {
		t.Errorf("histogram sum = %d held cycles, stats = %d", h.Sum, st.Holds)
	}
	if h.Total != 1 {
		t.Errorf("hold episodes = %d, want 1 (single MD miss)", h.Total)
	}
}

// Attaching a recorder must not change simulation semantics: the machine
// with metrics on is cycle-for-cycle identical to the bare one.
func TestRecorderDoesNotPerturbSimulation(t *testing.T) {
	build := func(attach bool) *Machine {
		b := masm.NewBuilder()
		emulatorLoop(b)
		b.EmitAt("svc", masm.I{ALU: microcode.ALUAplus1, A: microcode.ASelRM, R: 1, LC: microcode.LCLoadRM})
		b.Emit(masm.I{Block: true, Flow: masm.Goto("svc")})
		m := buildMachine(t, Config{}, b)
		if attach {
			m.SetRecorder(obs.NewRecorder())
		}
		p := newProbe(5, 10, 30, 70)
		if err := m.Attach(p); err != nil {
			t.Fatal(err)
		}
		m.SetTPC(5, mustAssemble(t, b).MustEntry("svc"))
		for m.Cycle() < 150 {
			m.Step()
		}
		return m
	}
	bare, rec := build(false), build(true)
	if bare.RM(0) != rec.RM(0) || bare.RM(1) != rec.RM(1) {
		t.Errorf("results diverge: bare RM0/1 = %d/%d, recorded = %d/%d",
			bare.RM(0), bare.RM(1), rec.RM(0), rec.RM(1))
	}
	if bare.Stats() != rec.Stats() {
		t.Errorf("stats diverge:\nbare: %+v\nrec:  %+v", bare.Stats(), rec.Stats())
	}
}

func TestSetRecorderDetach(t *testing.T) {
	b := masm.NewBuilder()
	b.EmitAt("start", masm.I{ALU: microcode.ALUAplus1, A: microcode.ASelRM, R: 0, LC: microcode.LCLoadRM, Flow: masm.Goto("start")})
	m := buildMachine(t, Config{}, b)
	rec := obs.NewRecorder()
	m.SetRecorder(rec)
	if m.seam.rec != rec || !m.seam.watching {
		t.Fatal("SetRecorder did not attach the recorder to the observation seam")
	}
	for m.Cycle() < 10 {
		m.Step()
	}
	m.SetRecorder(nil)
	if m.seam.watching {
		t.Fatal("observation seam still watching with nothing attached")
	}
	rec.Flush(m.Cycle())
	before := len(rec.Spans())
	for m.Cycle() < 20 {
		m.Step()
	}
	if len(rec.Spans()) != before {
		t.Error("detached recorder still receiving events")
	}
}
