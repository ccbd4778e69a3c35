package device

import (
	"fmt"
	"slices"

	"dorado/internal/state"
)

// Device snapshot descriptions. These code into the machine's open device
// section (they do not open sections of their own). Queues are coded in
// canonical form — only the live entries, from the head, with drained
// prefixes dropped — so Snapshot→Restore→Snapshot is byte-identical.

// State implements Device.
func (d *WordSource) State(c *state.Codec) {
	// The FIFO ring is coded from its head and restored to start at slot 0.
	head := d.head
	if c.Decoding() {
		head = 0
	}
	c.Int(&d.n, len(d.fifo)+1)
	for i := 0; i < d.n; i++ {
		c.U16(&d.fifo[(head+i)&15])
	}
	if c.Decoded() {
		d.head = 0
	}
	c.U16(&d.next)
	c.U64(&d.dueAt)
	c.U64(&d.overruns)
	c.U64(&d.produced)
	c.U64(&d.consumed)
	c.Bool(&d.started)
}

// State implements Device.
func (d *Loopback) State(c *state.Codec) {
	c.Bool(&d.wake)
	c.U16(&d.seq)
	c.U64(&d.in)
	c.U64(&d.out)
	c.U16(&d.last)
}

// State implements Device.
func (d *Pulse) State(c *state.Codec) {
	c.Bool(&d.wake)
	c.U64(&d.raised)
	c.U64(&d.nextAt)
	c.Bool(&d.started)
	state.List(c, &d.lats, 8, c.U64)
	if len(d.lats) > maxLatencies {
		// A build without the bound recorded every latency. Nothing in
		// the machine reads them, so keep the ones this build would have
		// recorded: the snapshot revives, and parks again under a new
		// hash.
		d.lats = slices.Clone(d.lats[:maxLatencies])
	}
}

// State implements Device.
func (d *Display) State(c *state.Codec) {
	c.U32(&d.base)
	// The queue is coded from pHead and restored to start at 0.
	live := d.pending[d.pHead:]
	if c.Decoding() {
		live = d.pending[:0]
	}
	codeCommands(c, &live)
	if c.Decoded() {
		d.pending, d.pHead = live, 0
	}
	codeInt(c, &d.filled)
	c.U64(&d.consumeAt)
	c.Bool(&d.started)
	c.U64(&d.blocksMoved)
	c.U64(&d.underruns)
	c.U32(&d.checksum)
}

// State implements Device.
func (d *Scanner) State(c *state.Codec) {
	c.U32(&d.base)
	codeInt(c, &d.filled)
	codeCommands(c, &d.dests)
	c.U16(&d.seq)
	c.U64(&d.writeAt)
	c.Bool(&d.started)
	c.U64(&d.blocksMoved)
	c.U64(&d.overruns)
}

// codeCommands codes a display's or scanner's queued block addresses.
// Decoding refuses more than maxCommands of them: the commands drive the
// device, so dropping some would change what the machine does.
func codeCommands(c *state.Codec, q *[]uint32) {
	if state.List(c, q, 4, c.U32); len(*q) > maxCommands {
		c.Fail(fmt.Errorf("device: queue of %d block commands, at most %d fit", len(*q), maxCommands))
	}
}

// codeInt codes a block count as a 32-bit value.
func codeInt(c *state.Codec, p *int) {
	v := uint32(*p)
	if c.U32(&v); c.Decoded() {
		*p = int(v)
	}
}
