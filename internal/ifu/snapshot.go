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

// SaveState appends the IFU's state: configuration fingerprint, decode
// table, prefetch buffer, operand latch, timing, and counters.
func (u *Unit) SaveState(e *state.Encoder) {
	e.Section(sectIFUConfig)
	e.U32(uint32(u.cfg.FetchLatency))
	e.U32(uint32(u.cfg.BufferBytes))
	e.U32(uint32(u.cfg.DecodeLatency))

	e.Section(sectIFUState)
	e.Bool(u.hasIll)
	e.U16(uint16(u.illegal))
	e.U32(u.codeBase)
	e.U32(u.bytePC)
	e.U32(u.headPC)
	e.U64(u.readyAt)
	e.Bool(u.running)
	e.Bytes32(u.buf)
	e.U16(u.ops[0])
	e.U16(u.ops[1])
	e.U8(u.opHead)
	e.U8(u.opLen)
	last := u.LastEntry()
	saveEntry(e, &last)
	e.U64(u.stats.Dispatches)
	e.U64(u.stats.Resets)
	e.U64(u.stats.BytesRead)
	e.U64(u.stats.WordsFetch)
	for i := range u.table {
		saveEntry(e, &u.table[i])
	}
}

func saveEntry(e *state.Encoder, ent *Entry) {
	e.Bool(ent.Valid)
	e.U16(uint16(ent.Handler))
	e.U8(uint8(ent.Operands))
	e.Bool(ent.Wide)
	e.Bool(ent.LoadMemBase)
	e.U8(ent.MemBase)
	e.String(ent.Name)
}

func loadEntry(d *state.Decoder, ent *Entry) {
	ent.Valid = d.Bool()
	ent.Handler = microcode.Addr(d.U16())
	ent.Operands = int(d.U8())
	ent.Wide = d.Bool()
	ent.LoadMemBase = d.Bool()
	ent.MemBase = d.U8()
	ent.Name = d.String()
}

// LoadState restores the IFU from a snapshot taken by SaveState. The target
// unit must have been built with the identical timing configuration. A
// snapshot whose operand latch or decode rows no unit can hold is refused.
func (u *Unit) LoadState(d *state.Decoder) error {
	if err := d.Section(sectIFUConfig); err != nil {
		return err
	}
	got := Config{
		FetchLatency:  int(d.U32()),
		BufferBytes:   int(d.U32()),
		DecodeLatency: int(d.U32()),
	}
	if err := d.Err(); err != nil {
		return err
	}
	if got != u.cfg {
		return fmt.Errorf("ifu: snapshot config %+v, machine config %+v", got, u.cfg)
	}

	if err := d.Section(sectIFUState); err != nil {
		return err
	}
	u.hasIll = d.Bool()
	u.illegal = microcode.Addr(d.U16())
	u.codeBase = d.U32()
	u.bytePC = d.U32()
	u.headPC = d.U32()
	u.readyAt = d.U64()
	u.running = d.Bool()
	buf := d.Bytes32()
	if len(buf) > u.cfg.BufferBytes {
		return fmt.Errorf("ifu: snapshot buffer holds %d bytes, capacity is %d", len(buf), u.cfg.BufferBytes)
	}
	// Full capacity up front, as in Reset: the prefetcher's appends must
	// stay within the backing array so Step never allocates.
	u.buf = make([]byte, len(buf), u.cfg.BufferBytes)
	copy(u.buf, buf)
	u.ops[0] = d.U16()
	u.ops[1] = d.U16()
	head, n := d.U8(), d.U8()
	if int(head) > len(u.ops) || int(n) > len(u.ops) {
		return fmt.Errorf("ifu: snapshot operand latch head %d, length %d: it holds %d", head, n, len(u.ops))
	}
	u.opHead, u.opLen = head, n
	loadEntry(d, &u.last)
	u.lastOp = noLast
	u.stats.Dispatches = d.U64()
	u.stats.Resets = d.U64()
	u.stats.BytesRead = d.U64()
	u.stats.WordsFetch = d.U64()
	for i := range u.table {
		e := &u.table[i]
		loadEntry(d, e)
		if e.Valid && (e.Operands > 2 || e.Wide && e.Operands != 2 || e.Handler > microcode.AddrMask) {
			return fmt.Errorf("ifu: snapshot decode row %#02x is unusable: %+v", i, *e)
		}
	}
	if u.illegal > microcode.AddrMask {
		return fmt.Errorf("ifu: snapshot Illegal handler %v out of range", u.illegal)
	}
	u.compileAll()
	return d.Err()
}
