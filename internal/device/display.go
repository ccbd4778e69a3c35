package device

import (
	"dorado/internal/memory"
)

// Display is a fast-I/O output controller: it consumes 16-word blocks of
// bitmap at a fixed rate (the monitor's video rate) from a small block
// buffer, refilled by direct storage→device transfers that bypass the
// cache (§5.8). Its microcode is two instructions per block (§7): one
// Output commanding the next block address, one loop/block instruction.
//
// At CyclesPerBlock=8 the display demands the full storage bandwidth:
// 16 words × 16 bits / (8 × 60 ns) ≈ 533 Mbit/s, the paper's 530 Mbit/s
// figure (§1, §7).
type Display struct {
	Nop
	mem *memory.System

	// CyclesPerBlock is the video-rate consumption interval.
	CyclesPerBlock int
	// BufferBlocks is the device FIFO capacity in blocks.
	BufferBlocks int

	base    uint32   // VA of block 0 (Go-level configuration)
	pending []uint32 // commanded block VAs awaiting storage transfer
	pHead   int      // drained prefix of pending (reclaimed on Output)
	filled  int      // blocks in the FIFO

	consumeAt uint64
	started   bool

	blocksMoved uint64
	underruns   uint64
	checksum    uint32
}

// NewDisplay builds a display controller on the given task.
func NewDisplay(task int, mem *memory.System, cyclesPerBlock, bufferBlocks int) *Display {
	if bufferBlocks <= 0 {
		bufferBlocks = 4
	}
	return &Display{
		Nop:            Nop{TaskNum: task},
		mem:            mem,
		CyclesPerBlock: cyclesPerBlock,
		BufferBlocks:   bufferBlocks,
	}
}

// SetBase points the display at the bitmap's VA. Microcode block addresses
// (Output values) are word offsets from this base.
func (d *Display) SetBase(va uint32) { d.base = va }

// Wakeup implements Device: request service while the pipeline (commanded +
// buffered blocks) has room — the display must stay ahead of the beam.
func (d *Display) Wakeup() bool {
	return len(d.pending)-d.pHead+d.filled < d.BufferBlocks
}

// maxCommands bounds the block commands a display or scanner queues, as a
// hardware FIFO would: a command past it is dropped. Service microcode
// that blocks after each Output keeps at most a few queued; the most any
// bundled workload, experiment or test queues is 5 on a display (the fuzz
// farm's FastIO shape) and 2 on a scanner. Only a task that issues Output
// without blocking reaches the bound. Restore refuses a snapshot holding
// more.
const maxCommands = 256

// Output implements Device: microcode commands the transfer of the block at
// word offset v (the paper's display microcode sends a block address and
// bumps its pointer in one instruction). The live suffix moves to the
// front first: a full-rate display never fully drains, so waiting for an
// empty queue would grow it without bound.
func (d *Display) Output(v uint16, now uint64) {
	if d.pHead > 0 {
		n := copy(d.pending, d.pending[d.pHead:])
		d.pending, d.pHead = d.pending[:n], 0
	}
	if len(d.pending) < maxCommands {
		d.pending = append(d.pending, d.base+uint32(v))
	}
}

// Tick implements Device: move one pending block from storage when the
// storage pipe is free, and consume buffered blocks at the video rate.
func (d *Display) Tick(now uint64) {
	if !d.started {
		d.started = true
		d.consumeAt = now + uint64(d.CyclesPerBlock)
	}
	if d.pHead < len(d.pending) && d.filled < d.BufferBlocks {
		if blk, ok := d.mem.FastRead(d.pending[d.pHead], now); ok {
			d.pHead++
			d.filled++
			d.blocksMoved++
			for _, w := range blk {
				d.checksum = d.checksum*31 + uint32(w)
			}
		}
	}
	if now >= d.consumeAt {
		d.consumeAt += uint64(d.CyclesPerBlock)
		if d.filled > 0 {
			d.filled--
		} else {
			d.underruns++
		}
	}
}

// IdleUntil implements Device. The display acts only at its next consume
// and, while a commanded block waits and the FIFO has room, when the
// storage pipe frees; its wakeup line moves only at a consume or through
// Output, which ends the quiet window.
func (d *Display) IdleUntil(now uint64) uint64 {
	if !d.started {
		return now
	}
	if d.pHead < len(d.pending) && d.filled < d.BufferBlocks {
		return min(d.consumeAt, d.mem.StorageFreeAt())
	}
	return d.consumeAt
}

// BlocksMoved returns the number of blocks transferred from storage.
func (d *Display) BlocksMoved() uint64 { return d.blocksMoved }

// Underruns returns the number of video intervals with no data (0 when the
// system keeps up with the demanded bandwidth).
func (d *Display) Underruns() uint64 { return d.underruns }

// Checksum fingerprints all transferred data (validates that fast I/O reads
// the bytes the processor wrote).
func (d *Display) Checksum() uint32 { return d.checksum }
