package ifu

import (
	"fmt"

	"dorado/internal/microcode"
	"dorado/internal/state"
)

const (
	sectIFUConfig = "IFUC"
	sectIFUState  = "IFUS"
)

// State describes the IFU's state to a snapshot codec: timing fingerprint
// (compared, never applied), decode table, prefetch buffer, operand latch,
// timing, and counters. Decoding refuses an operand latch, buffer, decode
// row or Illegal handler no unit can hold before storing it. A decode
// table that the unit's own table or a shared one (NewTable) matches is
// installed by pointing at that table; any other is decoded row by row
// into a table of the unit's own, whose slots are then rebuilt.
func (u *Unit) State(c *state.Codec) {
	c.Section(sectIFUConfig)
	want := [...]uint32{fetchLatency, bufferBytes, decodeLatency}
	got := want
	for i := range got {
		c.U32(&got[i])
	}
	if got != want {
		c.Fail(fmt.Errorf("ifu: snapshot config %v, machine config %v", got, want))
	}

	c.Section(sectIFUState)
	hasIll, ill := u.tab.hasIll, uint16(u.tab.illegal)
	c.Bool(&hasIll)
	if c.U16(&ill); ill > microcode.AddrMask {
		c.Fail(fmt.Errorf("ifu: snapshot Illegal handler %v out of range", microcode.Addr(ill)))
	}
	c.U32(&u.codeBase)
	c.U32(&u.bytePC)
	c.U32(&u.headPC)
	c.U64(&u.readyAt)
	c.Bool(&u.running)
	c.Bytes32(&u.buf, bufferBytes)
	c.U16(&u.ops[0])
	c.U16(&u.ops[1])
	head, n := u.opHead, u.opLen
	c.U8(&head)
	if c.U8(&n); int(head) > len(u.ops) || int(n) > len(u.ops) {
		c.Fail(fmt.Errorf("ifu: snapshot operand latch head %d, length %d: it holds %d", head, n, len(u.ops)))
	} else if c.Decoded() {
		u.opHead, u.opLen = head, n
	}
	last := u.LastEntry()
	if codeEntry(c, &last); c.Decoded() {
		u.last, u.lastOp = last, noLast
	}
	for _, p := range [...]*uint64{&u.stats.Dispatches, &u.stats.Resets, &u.stats.BytesRead, &u.stats.WordsFetch} {
		c.U64(p)
	}
	u.codeTable(c, hasIll, microcode.Addr(ill))
	if c.Decoding() {
		u.armFetch()
		u.armDispatch()
	}
}

// codeTable codes the decode table's rows, which end the section, and
// installs the decoded table with its Illegal handler (hasIll, ill). A
// shared table's rows are written in one copy. Decoding points the unit
// at the shared table whose rows match, when there is no Illegal handler,
// with no row decoded and no slot rebuilt; any other table is decoded
// into one of the unit's own, row by row, a row's name allocated only
// where it differs from the one held, and its slots rebuilt.
func (u *Unit) codeTable(c *state.Codec, hasIll bool, ill microcode.Addr) {
	t := u.tab
	switch {
	case !c.Decoding() && t.shared:
		c.Same(t.enc)
		return
	case !c.Decoding():
		for i := range t.rows {
			codeEntry(c, &t.rows[i])
		}
		return
	case !c.Decoded():
		return
	}
	if !hasIll && ill == 0 {
		for _, s := range sharedTables() {
			if c.Same(s.enc) {
				u.tab = s
				return
			}
		}
	}
	t = u.own()
	t.hasIll, t.illegal = hasIll, ill
	for i := range t.rows {
		codeEntry(c, &t.rows[i])
	}
	t.compileAll()
}

// codeEntry codes one decode-table row. Decoding refuses a valid row that
// SetEntry would not install, or whose handler is past the microstore.
func codeEntry(c *state.Codec, p *Entry) {
	e := *p
	h, ops := uint16(e.Handler), uint8(e.Operands)
	c.Bool(&e.Valid)
	c.U16(&h)
	c.U8(&ops)
	c.Bool(&e.Wide)
	c.Bool(&e.LoadMemBase)
	c.U8(&e.MemBase)
	c.String(&e.Name)
	e.Handler, e.Operands = microcode.Addr(h), int(ops)
	if e.Valid && (e.Operands > 2 || e.Wide && e.Operands != 2 || e.Handler > microcode.AddrMask) {
		c.Fail(fmt.Errorf("ifu: snapshot decode row %+v is unusable", e))
	} else if c.Decoded() {
		*p = e
	}
}
