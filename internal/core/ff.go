package core

import (
	"fmt"

	"dorado/internal/microcode"
)

// execFF performs the instruction's FF function (§5.5's "catchall").
// It receives the A-bus value (for memory-management addresses), the
// RM/stack word and implicitly T (the shifter's 32-bit input, §6.3.4), the
// B-bus value (the data for "put" functions), and the ALU result; it
// returns the value for the RESULT bus (the ALU result unless the function
// overrides it).
func (m *Machine) execFF(ff uint8, d *decoded, aVal, rmVal, bVal, res uint16, now uint64) uint16 {
	ts := &m.tasks[m.curTask]
	switch {
	case ff >= microcode.FFRotBase && ff < microcode.FFRotBase+32:
		m.shiftCtl = microcode.EncodeShiftCtl(microcode.ShiftCtl{Count: ff - microcode.FFRotBase})
		return res
	case ff >= microcode.FFMemBaseBase && ff < microcode.FFMemBaseBase+32:
		m.membase = ff - microcode.FFMemBaseBase
		return res
	case ff >= microcode.FFCountBase && ff < microcode.FFCountBase+16:
		m.count = uint16(ff - microcode.FFCountBase)
		return res
	case ff >= microcode.FFRMDestBase && ff < microcode.FFRMDestBase+16:
		return res // RM write redirection; applied in exec's store phase
	}

	switch ff {
	case microcode.FFReadyB:
		m.ready |= 1 << (bVal & 15) // explicit wakeup (§6.2.1)
	case microcode.FFReadTPC:
		return uint16(m.tasks[bVal&15].tpc)
	case microcode.FFWriteTPC:
		m.tasks[m.count&15].tpc = microcode.Addr(bVal) & microcode.AddrMask
	case microcode.FFCPRegGet:
		return m.cpreg
	case microcode.FFCPRegPut:
		m.cpreg = bVal
	case microcode.FFFlushCache:
		m.mem.Flush(m.mem.VA(m.membase, aVal), now)
	case microcode.FFMapSet:
		m.mem.MapSet(m.mem.VA(m.membase, aVal)/256, uint32(bVal))
	case microcode.FFMapGet:
		return uint16(m.mem.MapGet(m.mem.VA(m.membase, aVal) / 256))
	case microcode.FFIFUReset:
		m.ifu.Reset(bVal, now)
	case microcode.FFSetMB:
		ts.mb = true
	case microcode.FFClearMB:
		ts.mb = false
	case microcode.FFProbeMD:
		ts.mb = m.mem.MDReady(m.curTask, now)
	case microcode.FFStackReset:
		m.stackPtr = uint8(bVal)
		ts.stackErr = false
	case microcode.FFHalt:
		m.halted = true
		m.haltPC = m.curPC

	case microcode.FFPutRBase:
		m.rbase = uint8(bVal) & 0xF
	case microcode.FFPutStackPtr:
		m.stackPtr = uint8(bVal)
	case microcode.FFPutMemBase:
		m.membase = uint8(bVal) & 0x1F
	case microcode.FFPutShiftCtl:
		m.shiftCtl = bVal
	case microcode.FFPutIOAddress:
		ts.ioadr = bVal
	case microcode.FFPutCount:
		m.count = bVal
	case microcode.FFPutQ:
		m.q = bVal
	case microcode.FFPutALUFM:
		m.alufm[d.aluOp] = microcode.DecodeALUCtl(uint8(bVal))
	case microcode.FFPutLink:
		ts.link = microcode.Addr(bVal) & microcode.AddrMask
	case microcode.FFPutBaseLo:
		m.mem.SetBaseLo(int(m.membase), bVal)
	case microcode.FFPutBaseHi:
		m.mem.SetBaseHi(int(m.membase), bVal)

	case microcode.FFGetRBase:
		return uint16(m.rbase)
	case microcode.FFGetStackPtr:
		return uint16(m.stackPtr)
	case microcode.FFGetMemBase:
		return uint16(m.membase)
	case microcode.FFGetShiftCtl:
		return m.shiftCtl
	case microcode.FFGetIOAddress:
		return ts.ioadr
	case microcode.FFGetCount:
		return m.count
	case microcode.FFGetQ:
		return m.q
	case microcode.FFGetALUFM:
		return uint16(microcode.EncodeALUCtl(m.alufm[d.aluOp]))
	case microcode.FFGetLink:
		return uint16(ts.link)
	case microcode.FFGetMacroPC:
		return uint16(m.ifu.PC())
	case microcode.FFGetBaseLo:
		return m.mem.BaseLo(int(m.membase))
	case microcode.FFGetFaultHi:
		f, _ := m.mem.LastFault()
		return uint16(f.Kind)<<12 | uint16(f.VA>>16)&0x0FFF
	case microcode.FFGetFaultLo:
		f, _ := m.mem.TakeFault()
		return uint16(f.VA)

	case microcode.FFShiftNoMask:
		s := microcode.DecodeShiftCtl(m.shiftCtl)
		s.LMask, s.RMask = 0, 0
		return s.Shift(rmVal, ts.t, 0)
	case microcode.FFShiftMaskZ:
		return microcode.DecodeShiftCtl(m.shiftCtl).Shift(rmVal, ts.t, 0)
	case microcode.FFShiftMaskMD:
		md := m.mem.MD(m.curTask, now) // readiness checked in the hold phase
		return microcode.DecodeShiftCtl(m.shiftCtl).Shift(rmVal, ts.t, md)
	case microcode.FFALULsh:
		return res << 1
	case microcode.FFALURsh:
		return res >> 1
	case microcode.FFMulStep:
		return m.mulStep(aVal, bVal)
	case microcode.FFDivStep:
		return m.divStep(aVal, bVal)

	case microcode.FFOutput:
		if dev := m.devs[ts.ioadr&15]; dev != nil {
			dev.Output(bVal, now)
			m.touched(ts.ioadr & 15)
		}
	case microcode.FFIOAttenAck:
		// Explicit service acknowledgement — the grain-3 ablation's notify
		// (§6.2.1), and a general-purpose device poke otherwise.
		if dev := m.devs[ts.ioadr&15]; dev != nil {
			dev.NotifyNext(now)
			m.touched(ts.ioadr & 15)
		}
	case microcode.FFDevCtl:
		if dev := m.devs[ts.ioadr&15]; dev != nil {
			dev.Control(bVal, now)
			m.touched(ts.ioadr & 15)
		}

	default:
		panic(fmt.Sprintf("core: reserved FF %#02x at %v", ff, m.curPC))
	}
	return res
}
