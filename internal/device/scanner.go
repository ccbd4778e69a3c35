package device

import (
	"dorado/internal/memory"
)

// Scanner is a fast-I/O *input* controller — the inverse of Display: it
// produces 16-word blocks at a fixed rate (a scanner or frame grabber, one
// of §3's "raster scanned" class of devices) and transfers them directly
// into storage without polluting the cache. Its microcode mirrors the
// display's: one Output commanding the destination block address, one
// block instruction.
type Scanner struct {
	Nop
	mem *memory.System

	// CyclesPerBlock is the capture rate.
	CyclesPerBlock int
	// BufferBlocks is the device FIFO capacity.
	BufferBlocks int

	base    uint32
	filled  int      // captured blocks waiting for a destination
	dests   []uint32 // commanded destination VAs
	dHead   int      // drained prefix of dests (reclaimed on Output)
	seq     uint16   // generated pixel pattern
	writeAt uint64
	started bool

	blocksMoved uint64
	overruns    uint64
}

// NewScanner builds a scanner on the given task.
func NewScanner(task int, mem *memory.System, cyclesPerBlock, bufferBlocks int) *Scanner {
	if bufferBlocks <= 0 {
		bufferBlocks = 4
	}
	return &Scanner{
		Nop:            Nop{TaskNum: task},
		mem:            mem,
		CyclesPerBlock: cyclesPerBlock,
		BufferBlocks:   bufferBlocks,
	}
}

// SetBase sets the VA that microcode block offsets are relative to.
func (d *Scanner) SetBase(va uint32) { d.base = va }

// Wakeup implements Device: request service while captured blocks wait for
// destinations.
func (d *Scanner) Wakeup() bool { return d.filled > len(d.dests)-d.dHead }

// Output implements Device: microcode supplies the next destination block
// offset. A destination past maxCommands is dropped. The live suffix moves
// to the front first, as the display's does, so the queue reuses its
// backing array instead of draining it from the front.
func (d *Scanner) Output(v uint16, now uint64) {
	if d.dHead > 0 {
		n := copy(d.dests, d.dests[d.dHead:])
		d.dests, d.dHead = d.dests[:n], 0
	}
	if len(d.dests) < maxCommands {
		d.dests = append(d.dests, d.base+uint32(v))
	}
}

// Tick implements Device: capture at the fixed rate; drain captured blocks
// into storage as destinations and storage cycles allow.
func (d *Scanner) Tick(now uint64) {
	if !d.started {
		d.started = true
		d.writeAt = now + uint64(d.CyclesPerBlock)
	}
	if now >= d.writeAt {
		d.writeAt += uint64(d.CyclesPerBlock)
		if d.filled < d.BufferBlocks {
			d.filled++
		} else {
			d.overruns++ // pixels lost: the processor fell behind
		}
	}
	if d.filled > 0 && d.dHead < len(d.dests) {
		// The pattern advances only with a written block, so a transfer
		// the busy storage pipe refuses changes nothing (IdleUntil relies
		// on it).
		var blk [memory.LineWords]uint16
		for i := range blk {
			blk[i] = d.seq + uint16(i) + 1
		}
		if d.mem.FastWrite(d.dests[d.dHead], blk, now) {
			d.seq += memory.LineWords
			d.dHead++
			d.filled--
			d.blocksMoved++
		}
	}
}

// IdleUntil implements Device. The scanner acts only at its next capture
// and, while a captured block and a destination both wait, when the
// storage pipe frees; its wakeup line moves only at a capture, a transfer,
// or through Output, which ends the quiet window.
func (d *Scanner) IdleUntil(now uint64) uint64 {
	if !d.started {
		return now
	}
	if d.filled > 0 && d.dHead < len(d.dests) {
		return min(d.writeAt, d.mem.StorageFreeAt())
	}
	return d.writeAt
}

// BlocksMoved returns the blocks written to storage.
func (d *Scanner) BlocksMoved() uint64 { return d.blocksMoved }

// Overruns returns the capture intervals lost to a full FIFO.
func (d *Scanner) Overruns() uint64 { return d.overruns }
