package core

import (
	"reflect"
	"runtime"
	"strings"
)

// TemplateMix counts the fused slots of every cached superblock by the
// template that built each slot's closure, read from the closure's
// function name. Names are matched on substrings because inlining puts
// the caller's name in front (an exec slot can be core.fuseInst.fuseExec.func1).
func TemplateMix(m *Machine) (alu, mem, exec int) {
	for _, b := range m.trans.blocks {
		if b == nil {
			continue
		}
		for _, fn := range b.code {
			name := runtime.FuncForPC(reflect.ValueOf(fn).Pointer()).Name()
			switch {
			case strings.Contains(name, "fuseALU"):
				alu++
			case strings.Contains(name, "fuseWide"):
				mem++
			default:
				exec++
			}
		}
	}
	return alu, mem, exec
}

// HorizonStats reports the machine's device scans and the cycles it
// retired in bulk as repeats of a held cycle, since it was built.
func HorizonStats(m *Machine) (scans, bulkHeld uint64) { return m.scans, m.bulkHeld }
