package device

// Test hooks: the bounds, and the live length of each queue a snapshot
// carries (Pulse.Latencies exports its own).
const (
	MaxCommands  = maxCommands
	MaxLatencies = maxLatencies
)

// QueueLen returns the display's queued block commands.
func (d *Display) QueueLen() int { return len(d.pending) - d.pHead }

// QueueLen returns the scanner's queued destinations.
func (d *Scanner) QueueLen() int { return len(d.dests) - d.dHead }
