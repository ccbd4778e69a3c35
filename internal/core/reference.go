package core

import "math/bits"

// stepReference is one cycle on the reference interpreter
// (Config.Reference): the seed simulator's per-cycle work, kept apart from
// step so the oracle the differential tests trust shares no code path with
// the fast paths it checks beyond exec itself. Every cycle scans all 16
// task slots for devices and decodes the packed microword from scratch —
// the host-performance baseline cmd/simbench divides by. The pipeline it
// models is the one Step documents.
func (m *Machine) stepReference() {
	now := m.cycle

	lines := uint16(1) | m.ready
	for _, d := range m.devs {
		if d != nil {
			d.Tick(now)
		}
	}
	m.ifu.Tick(now)
	for t := 1; t < NumTasks; t++ {
		if m.devs[t] != nil && m.devs[t].Wakeup() {
			lines |= 1 << t
		}
	}

	execTask := m.curTask
	execPC := m.curPC
	var held, blocked, didExec bool
	var nextPC = m.curPC
	if m.stalls > 0 {
		m.stalls--
		m.stats.BranchStalls++
		m.stats.TaskCycles[m.curTask]++
	} else {
		d := decodeWord(m.im.word[m.curPC])
		held, blocked, nextPC = m.exec(&d, now)
		didExec = true
	}

	next := m.bestNext
	if !blocked && m.curTask > next {
		next = m.curTask
	}
	if next != m.curTask {
		m.tasks[m.curTask].tpc = nextPC
		if blocked {
			m.ready &^= 1 << m.curTask
			m.stats.Blocks++
		} else {
			m.ready |= 1 << m.curTask
			m.stats.Preemptions++
		}
		m.stats.TaskSwitches++
		m.lastTask = m.curTask
		m.curTask = next
		m.curPC = m.tasks[next].tpc
	} else {
		if blocked {
			m.stats.Blocks++
			m.ready &^= 1 << m.curTask
		}
		m.curPC = nextPC
	}
	m.ready &^= 1 << next
	if !m.cfg.Options.ExplicitNotify && m.devs[next] != nil {
		m.devs[next].NotifyNext(now)
	}
	m.bestNext = 15 - bits.LeadingZeros16(lines)

	if m.seam.wants(now, execTask, held, lines) {
		m.observe(now, execTask, execPC, held, didExec && !held, lines)
	}
	m.cycle++
}
