// Package device models Dorado I/O controllers.
//
// The Dorado shares its processor among device controllers instead of
// giving each controller DMA hardware (§4 of the paper): a controller is a
// small amount of hardware (modeled here) plus microcode running in one of
// the 16 priority tasks (written against internal/masm and run by
// internal/core). The hardware side:
//
//   - raises a *wakeup request* when it needs service; the processor's task
//     pipeline arbitrates and switches to the controller's task (§5.1–5.2);
//   - watches the NEXT bus to learn that it is about to be served and drops
//     its wakeup at the right moment (§6.2.1: "The device cannot remove the
//     wakeup until it knows that the task is running — by seeing its number
//     on NEXT");
//   - exchanges data with microcode over the IODATA bus (FF Input/Output,
//     §5.8 slow I/O), and/or transfers 16-word blocks directly to storage
//     (fast I/O).
//
// The concrete devices reproduce the paper's workloads: Disk (10 Mbit/s
// slow I/O, §7), Display (fast I/O at up to full storage bandwidth, §7),
// a slower serial link standing in for the Ethernet, a Loopback device for
// peak slow-I/O measurements, and a Pulse timer for latency probes.
package device

import "dorado/internal/state"

// Device is the hardware half of a controller, driven by the processor
// simulation one cycle at a time.
type Device interface {
	// Task returns the controller's task number (1–15; higher = more
	// urgent, §5.1).
	Task() int
	// Tick advances the device one machine cycle.
	Tick(now uint64)
	// Wakeup reports the state of the task's wakeup request line.
	Wakeup() bool
	// NotifyNext tells the device its task number is on the NEXT bus: the
	// processor will run its microcode next cycle (§6.2.1).
	NotifyNext(now uint64)
	// Input answers an FF Input: one word from device to processor.
	Input(now uint64) uint16
	// Output answers an FF Output: one word from processor to device.
	Output(v uint16, now uint64)
	// Control answers an FF DevCtl: a command word from the processor.
	Control(v uint16, now uint64)
	// Atten reports the device's attention line (the IOAtten branch
	// condition).
	Atten() bool
	// State describes the device's mutable state (FIFOs, timers,
	// counters) to a machine snapshot's codec, which is positioned at this
	// device's data in the processor's device section. Devices with no
	// mutable state inherit the no-op from Nop.
	State(c *state.Codec)
}

// Idler is an optional Device extension for event-driven controllers. The
// scheduler calls IdleUntil(now) immediately after a Tick(now)/Wakeup()
// scan; the device returns its event horizon, the first cycle q at which
// it must be consulted again. The promise covers the cycles before q for
// as long as the processor leaves the device alone: for every cycle t with
// now < t < q, Tick(t) changes no state and Wakeup() keeps the value it had
// at the scan, and NotifyNext(t) for now <= t < q is a no-op. A device that
// cannot promise anything returns now.
//
// Every execution path relies on the promise: the processor ticks each
// controller only at its horizon and reuses its latched wakeup line in
// between. What can break a promise ends the quiet window: an FF Input,
// Output, DevCtl or IOAttenAck ends the addressed device's; Attach,
// Restore and every Run or Step entry (the host may have touched a device
// between calls) end every device's. A promise may rest on
// memory.System.StorageFreeAt: references, flushes and other controllers'
// transfers only move it later. A device that does not implement Idler is
// due again every cycle, so it is scanned every cycle, which is always
// correct.
type Idler interface {
	IdleUntil(now uint64) uint64
}

// Nop is a Device with no behavior; embed it to implement only what a
// device needs.
type Nop struct{ TaskNum int }

// Task implements Device.
func (n *Nop) Task() int { return n.TaskNum }

// Tick implements Device.
func (*Nop) Tick(uint64) {}

// Wakeup implements Device.
func (*Nop) Wakeup() bool { return false }

// NotifyNext implements Device.
func (*Nop) NotifyNext(uint64) {}

// Input implements Device.
func (*Nop) Input(uint64) uint16 { return 0 }

// Output implements Device.
func (*Nop) Output(uint16, uint64) {}

// Control implements Device.
func (*Nop) Control(uint16, uint64) {}

// Atten implements Device.
func (*Nop) Atten() bool { return false }

// State implements Device: no mutable state.
func (*Nop) State(*state.Codec) {}
